"""Acceptance suite: each criterion of `hyperbin.verify` at full scale with
its fixed seed. Every row prints an ACCEPTANCE line with its measured value
and threshold (see them with -s); a test fails if any of its rows fails."""

import functools

import pytest

from hyperbin import verify


@functools.cache
def full_rows(check, seed):
    return tuple(check("full", seed))


def run(check, seed, keep=lambda row: True):
    criterion = int(check.__name__.removeprefix("check_c"))
    rows = [row for row in full_rows(check, seed) if keep(row)]
    assert rows, f"criterion {criterion}: no rows selected"
    for row in rows:
        print(f"ACCEPTANCE {criterion:2d} {'PASS' if row.passed else 'FAIL'} {row.detail}")
    failed = [row.detail for row in rows if not row.passed]
    assert not failed, f"criterion {criterion}: {failed}"


def test_c01_kernel_matches_matrix_exponential():
    run(verify.check_c01, seed=0)  # deterministic


def test_c02_forward_kl_decay():
    run(verify.check_c02, seed=2002)


def test_c03_reverse_rate_bound_and_no_truncation():
    run(verify.check_c03, seed=2003)


def test_c04_partition_and_event_counts():
    run(verify.check_c04, seed=2004)


def test_c05_unbiased_generation():
    run(verify.check_c05, seed=1005)


@pytest.mark.parametrize("target_sq", (0.01, 0.04))
def test_c06_score_error_robustness(target_sq):
    # check_c06 runs both targets once; each case judges its target's two rows
    run(verify.check_c06, seed=1006, keep=lambda row: f" {target_sq}:" in row.detail)


def test_c07_early_stopping_bias():
    run(verify.check_c07, seed=2007)


def test_c08_end_to_end_gaussian_mixture():
    run(verify.check_c08, seed=1008)


def test_c09_complexity_scaling():
    run(verify.check_c09, seed=2009)


def test_c10_euler_needs_more_evaluations():
    run(verify.check_c10, seed=1010)


def test_c11_adjacency_structure():
    run(verify.check_c11, seed=0)  # deterministic
