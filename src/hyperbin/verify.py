"""The acceptance-check catalogue: one definition of each criterion.

`check_cNN(scale, seed)` measures criterion NN and returns `CheckRow`s
whose detail text gives each measured value next to its threshold.
`tests/test_acceptance.py` runs each check at `"full"` scale with a fixed
seed, and `hyperbin verify --suite NAME` at `"quick"` scale with `--seed`.
Only the two checks that sample laws, c05 and c08, run fewer replicas
at quick scale; `REPLICAS` holds those sizes. Every other check runs one
size, and its thresholds are named once in the check. c05 and c08 judge
their sampled laws by one G-test at one false-alarm rate, ALPHA. c01,
c06, c09, c10 and c11 sample nothing, and neither does c08's TV row, so
their rows are the same at both scales and every seed; c09 reads the expected
event count sum beta_w dt_w of each partition. `SUITES` maps each CLI
suite name to its check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.stats import binom, chi2, norm

from .adjacency import graph_report, mixing_time
from .bits import all_states, hamming_to_rows, state_to_index
from .chain import (
    EmpiricalInitial,
    dense_rate_matrix,
    dense_ratios,
    flip_apply,
    flip_probability,
    marginal_at,
)
from .metrics import kl_exact, tv_continuous_histogram, tv_exact
from .quantizer import QuantizerSpec, quantize_point, vbin_encode
from .sampler import (
    SamplerConfig,
    TimePartition,
    beta_value,
    build_partition,
    sample,
)
from .scores import (
    TIME_BUCKETS,
    ExactScoreOracle,
    PerturbedScoreOracle,
    ScoreOracle,
    calibrate_noise_scale,
    score_entropy_loss,
)

# Replicas per G-test row of c05 and c08; its threshold is set by ALPHA alone.
REPLICAS = {"full": 200_000, "quick": 20_000}

# c10: the Euler step counts tried, and the number of exact draws whose
# mean plug-in TV an Euler law must reach to match uniformization.
EULER_LADDER = (32, 64, 128, 256, 512, 1024)
MATCH_DRAWS = 100_000

# c05 and c08: the chance that a G-test row fails on correct code.
ALPHA = 1e-6


@dataclass(frozen=True)
class CheckRow:
    name: str
    passed: bool
    value: float
    n: int
    detail: str


def _e(x: float) -> str:
    """Short scientific notation: 2e5, 1e-9."""
    return f"{x:.0e}".replace("e+0", "e").replace("e-0", "e-")


def random_initial(rng: np.random.Generator, D: int, support: int) -> EmpiricalInitial:
    """Random weighted empirical initial law with deduplicated support."""
    draws = rng.integers(0, 2, size=(support, D), dtype=np.uint8)
    states = EmpiricalInitial.from_dataset(draws).states
    weights = rng.random(len(states)) + 0.1
    return EmpiricalInitial(states=states, weights=weights / weights.sum())


def d6_instance(seed: int):
    """The shared D = 6 instance: 64-bin 1D grid, 10-point random support
    from a fixed RNG, eps = 0.1 schedule with sampler seed `seed`."""
    spec = QuantizerSpec.from_grid(d=1, L=4.0, K=64)
    initial = random_initial(np.random.default_rng(20240611), spec.n_bits, 10)
    config = SamplerConfig.default_schedule(spec, 0.1, seed=seed, init="exact-terminal")
    return initial, config


def check_c01(scale: str, seed: int) -> list[CheckRow]:
    """Closed-form bit-flip kernel against the dense matrix exponential
    (deterministic; `seed` is unused)."""
    max_D, tol = 8, 1e-9
    worst = 0.0
    for D in range(1, max_D + 1):
        R = dense_rate_matrix(D)
        ham = hamming_to_rows(all_states(D), all_states(D))
        for dt in (0.01, 0.1, 1.0, 5.0):
            pf = flip_probability(dt)
            closed = pf**ham * (1 - pf) ** (D - ham)
            worst = max(worst, float(np.abs(closed - expm(dt * R)).max()))
    detail = (
        f"closed-form kernel vs dense matrix exponential: max abs error {worst:.2e} "
        f"over D<={max_D}, dt in {{0.01,0.1,1,5}} (tol {_e(tol)})"
    )
    return [CheckRow("closed_form_vs_expm", worst <= tol, worst, 4 * max_D, detail)]


def check_c02(scale: str, seed: int) -> list[CheckRow]:
    """Forward KL to uniform decays within the e^-t D envelope."""
    initials, max_D = 100, 10
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(initials):
        D = int(rng.integers(2, max_D + 1))
        initial = random_initial(rng, D, int(rng.integers(1, 9)))
        for t in (0.5, 1.0, 2.0, 4.0):
            kl = kl_exact(marginal_at(initial, t), np.full(1 << D, 2.0**-D))
            worst = max(worst, kl / (math.exp(-t) * D))
    detail = (
        f"forward KL decay envelope: max KL/(e^-t D) = {worst:.4f} over {initials} "
        f"initials, D<={max_D} (must be <= 1, no slack)"
    )
    return [CheckRow("kl_within_envelope", worst <= 1.0, worst, initials, detail)]


def check_c03(scale: str, seed: int) -> list[CheckRow]:
    """Exact reverse rates stay under the tight bound, which stays under the
    sampler's cap, so exact scores never trigger truncation."""
    draws, max_D, sample_dims = 20, 8, (4, 7, 10)
    rng = np.random.default_rng(seed)
    worst, over_cap = 0.0, 0
    for _ in range(draws):
        D = int(rng.integers(2, max_D + 1))
        T = float(rng.uniform(1.0, 5.0))
        t = float(rng.uniform(0.0, T - 0.05))
        initial = random_initial(rng, D, int(rng.integers(1, 8)))
        total = dense_ratios(marginal_at(initial, T - t)).sum(axis=1)
        tight = D * (1.0 + 1.0 / (T - t))
        over_cap += tight > beta_value(D, T, t) + 1e-12
        worst = max(worst, float(total.max()) / tight)

    truncations = 0
    for D in sample_dims:
        spec = QuantizerSpec.from_grid(d=1, L=1.0, K=1 << D)
        initial = random_initial(rng, D, 6)
        config = SamplerConfig.default_schedule(spec, 0.1, seed=D)
        result = sample(config, ExactScoreOracle(initial, config.T), 2000)
        truncations += result.stats.truncation_activations
    detail = (
        f"exact reverse rates under the cap: max total-rate/tight-bound = {worst:.4f} (<= 1); "
        f"{truncations} truncation activations under exact scores on D in "
        f"{{{','.join(map(str, sample_dims))}}} (expect 0); "
        f"tight bound above the beta cap on {over_cap} draws (expect 0)"
    )
    passed = worst <= 1.0 and truncations == 0 and over_cap == 0
    return [CheckRow("total_rate_under_cap", passed, worst, draws, detail)]


def check_c04(scale: str, seed: int) -> list[CheckRow]:
    """Partition grids are valid, with caps at segment right endpoints,
    their expected event counts stay within the nominal budget, the
    sampler's event count is Poisson-correct, and its cost model counts D
    score evaluations per event, whether or not thinning queried the event
    (`RunStats.queried_rows` counts the queried rows apart). Same sizes at
    both scales; the sampler runs with seed 11 at full scale and `seed` at
    quick."""
    rng = np.random.default_rng(seed)
    worst, invalid, draws, min_delta = 0.0, 0, 50, 0.03
    for _ in range(draws):
        D = int(rng.integers(1, 17))
        T = float(rng.uniform(0.5, 6.0))
        # nominal budget regime: coarse early stopping (the corrected
        # budget covers fine delta; see the partition tests)
        delta = float(np.exp(rng.uniform(math.log(min_delta), math.log(0.3)))) * min(1.0, T / 2)
        part = build_partition(D, T, delta)
        valid = (
            part.times[0] == 0.0
            and (np.diff(part.times) > 0).all()
            and abs(part.times[-1] - (T - delta)) <= 1e-12
            # a cap taken anywhere but the right endpoint can fall below the rate
            and np.array_equal(part.betas, beta_value(D, T, part.times[1:]))
        )
        invalid += not valid
        worst = max(worst, part.expected_events() / part.event_budget())

    spec = QuantizerSpec.from_grid(d=1, L=1.0, K=16)
    initial = random_initial(rng, 4, 6)
    config = SamplerConfig(spec=spec, T=3.0, delta=0.05, seed=11 if scale == "full" else seed)
    n, max_z = 10_000, 3.0
    result = sample(config, ExactScoreOracle(initial, config.T), n)
    lam = config.partition().expected_events()
    events, evals = result.stats.poisson_events, result.stats.score_evals
    z = abs(events / n - lam) / math.sqrt(lam / n)
    detail = (
        f"partition validity and event budget: max events/budget = {worst:.4f} over {draws} "
        f"draws (delta >= {min_delta}), {invalid} invalid grids or caps off the right "
        f"endpoints; empirical mean {events / n:.2f} vs {lam:.2f} = {z:.2f} sigma at {_e(n)} "
        f"replicas (cap {max_z:g}); {evals} score evaluations vs D * events = "
        f"{config.n_bits * events} (must be equal)"
    )
    passed = worst <= 1.0 and invalid == 0 and z <= max_z and evals == config.n_bits * events
    return [CheckRow("event_budget_and_count", passed, worst, draws, detail)]


def cap_totals(rates: np.ndarray, cap) -> np.ndarray:
    """Per-flip rates (B, D) with each row whose total exceeds `cap`
    scaled down to total `cap`."""
    total = rates.sum(axis=1, keepdims=True)
    return rates * np.divide(cap, total, out=np.ones_like(total), where=total > cap)


def uniformization_law(
    oracle: ScoreOracle, partition: TimePartition, start: np.ndarray
) -> np.ndarray:
    """Exact law at T - delta of the chain that `sampler.sample` simulates
    under `oracle` on `partition`, from the dense law `start`.

    On segment w the chain flips bit i of y at rate ratio_i(y, t), each
    state's total capped at beta_w, so the law solves dq/dt = G(t) q, with
    G q = flip_apply(cap_totals(ratios, beta_w), q); DOP853 integrates it at
    rtol 1e-11. Segments are split at the edges k T / TIME_BUCKETS, where a
    perturbed oracle's noise jumps, and each query stays strictly below its
    piece's right end, since a query at an edge reads the next bucket's
    noise. It shares no code with the sampler's kernel, so it is an
    independent reference for it.
    """
    states = all_states(partition.n_bits)
    edges = np.arange(1, TIME_BUCKETS) * (partition.T / TIME_BUCKETS)
    law = np.asarray(start, dtype=np.float64)
    for t0, t1, beta in partition.segments():
        cuts = np.concatenate(([t0], edges[(edges > t0) & (edges < t1)], [t1]))
        for a, b in zip(cuts[:-1], cuts[1:]):
            last = b - 1e-9 * (b - a)

            def rhs(t, q):
                rates = oracle.ratio_all(min(t, last), states)
                return flip_apply(cap_totals(rates, beta), q)

            law = solve_ivp(rhs, (a, b), law, method="DOP853", rtol=1e-11, atol=1e-14).y[:, -1]
    return law


def g_test(states: np.ndarray, law: np.ndarray) -> tuple[float, float]:
    """G statistic of sampled states (n, D) against the dense law, and the
    threshold it exceeds with probability about ALPHA when the states are
    draws from `law`. G = 2 sum c ln(c / n p) over cells; the states whose
    expected count n p is below 5 are pooled into one cell, so that G is
    close to chi-square with cells - 1 degrees of freedom. Fewer than two
    cells leave no degree of freedom, and raise ValueError."""
    counts = np.bincount(state_to_index(states), minlength=len(law))
    expected = len(states) * law
    pooled = expected < 5
    observed, expected = counts[~pooled], expected[~pooled]
    if pooled.any():
        observed = np.append(observed, counts[pooled].sum())
        expected = np.append(expected, len(states) * law[pooled].sum())
    if len(observed) < 2:
        raise ValueError(f"{len(states)} draws pool into one cell; a G-test needs two")
    hit = observed > 0
    G = 2.0 * float(np.sum(observed[hit] * np.log(observed[hit] / expected[hit])))
    return G, float(chi2.isf(ALPHA, len(observed) - 1))


def check_c05(scale: str, seed: int) -> list[CheckRow]:
    """The sampler's law equals the exact law of the chain it simulates,
    by a G-test at ALPHA: under the exact oracle that law is the
    early-stopped target; under a perturbed oracle with the tight cap,
    where truncation fires, it is `uniformization_law`."""
    n = REPLICAS[scale]
    initial, config = d6_instance(seed)
    exact = ExactScoreOracle(initial, config.T)
    target = marginal_at(initial, config.delta)
    G, threshold = g_test(sample(config, exact, n).states, target)
    detail = (
        f"sampler law equals the exact early-stopped law: G = {G:.1f} at {_e(n)} "
        f"replicas, D=6 (threshold {threshold:.1f} at alpha {_e(ALPHA)})"
    )
    rows = [CheckRow("sampler_law_matches_exact", G <= threshold, G, n, detail)]

    # the benchmark's perturbed_tight_d6 configuration
    tight = replace(config, beta_mode="tight")
    perturbed = PerturbedScoreOracle(exact, 0.5, seed=77)
    law = uniformization_law(perturbed, tight.partition(), marginal_at(initial, config.T))
    result = sample(tight, perturbed, n)
    G, threshold = g_test(result.states, law)
    st = result.stats
    detail = (
        f"perturbed sampler law equals its exact uniformization law: G = {G:.1f} at "
        f"{_e(n)} replicas, noise 0.5, tight cap, {st.truncation_activations} "
        f"truncations (threshold {threshold:.1f} at alpha {_e(ALPHA)}); "
        f"{st.queried_rows} of {st.poisson_events} events queried"
    )
    rows.append(CheckRow("perturbed_law_matches_exact", G <= threshold, G, n, detail))
    return rows


def check_c06(scale: str, seed: int) -> list[CheckRow]:
    """KL to the exact law grows at most (T - delta) times the score
    error, for oracles calibrated to the score-entropy losses 0.01 and
    0.04 on a 129-point time grid. The sampled chain's law is
    `uniformization_law`, so nothing is sampled and the rows are the
    same at both scales and every `seed`."""
    initial, config = d6_instance(seed)
    n_grid = 129
    grid = np.linspace(1e-3, config.T, n_grid)
    target = marginal_at(initial, config.delta)
    start, partition = marginal_at(initial, config.T), config.partition()
    rel_tol = 0.05
    rows = []
    for target_sq in (0.01, 0.04):
        oracle = calibrate_noise_scale(initial, config.T, target_sq, seed=77, time_grid=grid)
        measured = score_entropy_loss(oracle, initial, config.T, grid)
        calibrated = abs(measured - target_sq) <= rel_tol * target_sq
        detail = (
            f"score-error calibration {target_sq}: measured L_SE = {measured:.4f} "
            f"(target within rel {rel_tol:g})"
        )
        rows.append(CheckRow("score_error_calibrated", calibrated, measured, n_grid, detail))
        kl = kl_exact(target, uniformization_law(oracle, partition, start))
        # exact-terminal initialization: the initial KL term is zero
        bound = (config.T - config.delta) * measured
        detail = (
            f"KL growth under score error {target_sq}: exact KL = {kl:.2e} <= "
            f"(T-delta)*L_SE = {bound:.4f} (measured L_SE = {measured:.4f}, "
            f"law of the simulated chain)"
        )
        rows.append(CheckRow("kl_growth_within_budget", kl <= bound, kl, n_grid, detail))
    return rows


def check_c07(scale: str, seed: int) -> list[CheckRow]:
    """Early stopping at delta costs at most 1 - e^(-delta D) in TV,
    computed exactly."""
    max_D = 10
    rng = np.random.default_rng(seed)
    worst = 0.0
    for D in range(1, max_D + 1):
        initial = random_initial(rng, D, int(rng.integers(1, 8)))
        q0 = initial.to_dense()
        for delta in (0.001, 0.01, 0.1):
            tv = tv_exact(q0, marginal_at(initial, delta))
            worst = max(worst, tv / (1.0 - math.exp(-delta * D)))
    detail = (
        f"early-stopping TV bias bound: max TV/(1 - e^(-delta D)) = {worst:.4f} over "
        f"D<={max_D}, delta in {{1e-3,1e-2,1e-1}} (must be <= 1, computed exactly)"
    )
    return [CheckRow("early_stop_tv", worst <= 1.0, worst, 3 * max_D, detail)]


def check_c08(scale: str, seed: int) -> list[CheckRow]:
    """End to end on 0.5 N(-1.5, 0.5^2) + 0.5 N(+1.5, 0.5^2) over a 64-cell
    grid: the exact law of the simulated chain is within 5 eps in
    continuous-histogram TV (the same at both scales and every `seed`),
    and the decoded samples' grid cells follow it by a G-test at ALPHA."""
    n = REPLICAS[scale]
    spec = QuantizerSpec.from_grid(d=1, L=4.0, K=64)
    edges = -spec.L + spec.l * np.arange(spec.K + 1)
    comp = lambda e, mu: norm.cdf((e - mu) / 0.5)
    cell_mass = 0.5 * np.diff(comp(edges, -1.5)) + 0.5 * np.diff(comp(edges, 1.5))
    states = vbin_encode(spec, np.arange(spec.K)[:, None])
    initial = EmpiricalInitial(states=states, weights=cell_mass / cell_mass.sum())

    eps = 0.1
    config = SamplerConfig.default_schedule(spec, eps, seed=seed)
    oracle = ExactScoreOracle(initial, config.T)
    law = uniformization_law(oracle, config.partition(), np.full(spec.K, 1 / spec.K))
    tv = tv_continuous_histogram(law[state_to_index(states)], cell_mass)
    detail = (
        f"end-to-end continuous TV on a Gaussian mixture: continuous-histogram TV = "
        f"{tv:.4f} of the exact law of the simulated chain (threshold {5 * eps:g})"
    )
    rows = [CheckRow("gaussian_mixture_tv", tv <= 5 * eps, tv, spec.K, detail)]

    result = sample(config, oracle, n)
    G, threshold = g_test(vbin_encode(spec, quantize_point(spec, result.x)), law)
    detail = (
        f"decoded samples follow that law: G = {G:.1f} over the grid cells of {_e(n)} "
        f"samples (threshold {threshold:.1f} at alpha {_e(ALPHA)})"
    )
    rows.append(CheckRow("decoded_law_matches_exact", G <= threshold, G, n, detail))
    return rows


def check_c09(scale: str, seed: int) -> list[CheckRow]:
    """Expected events per replica, sum beta_w dt_w over the partition,
    stay within 2 D ln^2(D/eps) and scale with slope 1 against
    D ln^2(D/eps). Nothing is sampled, so the row is the same at both
    scales and every `seed`."""
    eps, dims = 0.1, (4, 8, 12, 16)
    events = []
    for D in dims:
        spec = QuantizerSpec.from_grid(d=1, L=1.0, K=1 << D)
        config = SamplerConfig.default_schedule(spec, eps, seed=seed)
        events.append(config.partition().expected_events())
    envelope = [2.0 * D * math.log(D / eps) ** 2 for D in dims]
    within = all(m <= e for m, e in zip(events, envelope))
    x = np.log([D * math.log(D / eps) ** 2 for D in dims])
    slope = float(np.polyfit(x, np.log(events), 1)[0])
    lo, hi = 0.8, 1.2
    detail = (
        f"score-evaluation complexity scaling: expected events {[round(m, 1) for m in events]} "
        f"within 2 D ln^2(D/eps) {[round(e, 1) for e in envelope]}; log-log slope vs "
        f"D ln^2(D/eps) = {slope:.3f} (required within [{lo}, {hi}])"
    )
    passed = within and lo <= slope <= hi
    return [CheckRow("complexity_slope", passed, slope, len(dims), detail)]


def euler_law(oracle: ScoreOracle, config: SamplerConfig, n_steps: int) -> np.ndarray:
    """Exact law of the Euler baseline after n_steps equal steps of length
    h over [0, T - delta], from the config's initial law. Step k
    caps every state's rates at beta(t_k), t_k = k h, scales them by h,
    caps their total at 1, and applies the kernel I + G of those flip
    probabilities. It shares no code with `sampler.euler_sample`, so it is
    an independent reference for it."""
    D, h = config.n_bits, (config.T - config.delta) / n_steps
    uniform = config.init == "uniform"
    law = np.full(1 << D, 2.0**-D) if uniform else marginal_at(oracle.initial, config.T)
    for k in range(n_steps):
        rates = oracle.ratio_all(k * h, all_states(D))
        rates = cap_totals(rates, beta_value(D, config.T, k * h, config.beta_mode))
        law = law + flip_apply(cap_totals(h * rates, 1.0), law)
    return law


def expected_plugin_tv(probs: np.ndarray, n: int) -> float:
    """Mean plug-in TV of n exact draws from the dense law `probs`: half
    the sum of E|X/n - p| over states, X ~ Binomial(n, p), each in de
    Moivre's closed form 2 nu (1 - p) pmf(nu; n, p) / n, nu = floor(n p) + 1."""
    nu = np.floor(n * probs) + 1
    return float(np.sum(nu * binom.pmf(nu, n, probs) * (1.0 - probs)) / n)


def check_c10(scale: str, seed: int) -> list[CheckRow]:
    """The fixed-step (Euler) baseline needs several times the score
    evaluations of uniformization to come as close to the target as
    MATCH_DRAWS exact draws do on average. Every number is exact, so the
    row is the same at both scales and at every `seed`."""
    initial, config = d6_instance(seed)
    oracle = ExactScoreOracle(initial, config.T)
    target = marginal_at(initial, config.delta)
    events = config.partition().expected_events()
    floor = expected_plugin_tv(target, MATCH_DRAWS)
    tvs = {steps: tv_exact(euler_law(oracle, config, steps), target) for steps in EULER_LADDER}
    matched = [steps for steps, tv in tvs.items() if tv <= floor]
    # with no match on the ladder the fixed-step method needs more steps
    # than its deepest entry, so the ratio at that entry is a lower bound
    needed = matched[0] if matched else EULER_LADDER[-1]
    ratio, min_ratio = needed / events, 4.0
    if matched:
        outcome = f"match at {needed} steps -> evaluation ratio {ratio:.1f}"
    else:
        outcome = f"no match up to {needed} steps -> evaluation ratio >= {ratio:.1f}"
    detail = (
        f"fixed-step baseline pays >= {min_ratio:g}x the evaluations: uniformization "
        f"{events:.2f} expected events/replica; exact fixed-step TVs "
        f"{dict((k, round(v, 4)) for k, v in tvs.items())} against the mean plug-in TV "
        f"{floor:.4f} of {_e(MATCH_DRAWS)} exact draws, {outcome} (>= {min_ratio:g} required)"
    )
    return [CheckRow("euler_evaluation_ratio", ratio >= min_ratio, ratio, MATCH_DRAWS, detail)]


def check_c11(scale: str, seed: int) -> list[CheckRow]:
    """Diameters and degrees of the three adjacency structures, and their
    mixing order (deterministic; same at both scales, `seed` is unused)."""
    sizes = (("tridiagonal", 8), ("dense", 8), ("hypercube", 3))
    triples = {kind: graph_report(kind, size) for kind, size in sizes}
    table_ok = triples == {"tridiagonal": (7, 2), "dense": (1, 7), "hypercube": (3, 3)}
    order_ok = True
    times = {}
    for n in (8, 16, 32):
        t_dense = mixing_time("dense", n)
        t_hyper = mixing_time("hypercube", int(math.log2(n)))
        t_tri = mixing_time("tridiagonal", n)
        times[n] = (round(t_dense, 3), round(t_hyper, 3), round(t_tri, 3))
        order_ok &= t_dense <= t_hyper <= t_tri
    detail = (
        f"adjacency diameters, degrees, and mixing order: report triples {triples}; "
        f"mixing times (dense, hypercube, tridiagonal) {times}"
    )
    passed = table_ok and order_ok
    return [CheckRow("adjacency_table_and_mixing_order", passed, float(passed), 6, detail)]


SUITES = {
    "kernel": check_c01,
    "kl-decay": check_c02,
    "beta-bound": check_c03,
    "partition": check_c04,
    "unbiased": check_c05,
    "robustness": check_c06,
    "early-stop": check_c07,
    "gaussian-mixture": check_c08,
    "complexity": check_c09,
    "euler-baseline": check_c10,
    "adjacency": check_c11,
}
