"""The acceptance-check catalogue: one definition of each criterion.

`check_cNN(scale, seed)` measures criterion NN and returns `CheckRow`s
whose detail text gives each measured value next to its threshold. At
`"full"` scale `tests/test_acceptance.py` runs the binding sizes with
fixed seeds; at `"quick"` scale `hyperbin verify --suite NAME` runs
desk-scale sizes with `--seed`. `SCALES` holds the sizes and n-dependent
slacks of both; thresholds that do not depend on n are named once in
their check. c04, c10 and c11 run one size at both scales; c10 samples
nothing, so its row is the same at every seed. `SUITES` maps each CLI
suite name to its check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.stats import binom, norm

from .adjacency import graph_report, mixing_time
from .bits import all_states, hamming_to_rows, state_to_index
from .chain import (
    EmpiricalInitial,
    dense_rate_matrix,
    dense_ratios,
    flip_generator,
    flip_probability,
    marginal_at,
)
from .metrics import EmpiricalLaw, kl_exact, tv_continuous_histogram, tv_exact, tv_plugin
from .quantizer import QuantizerSpec, vbin_encode
from .sampler import (
    SamplerConfig,
    beta_value,
    build_partition,
    exact_reverse_marginal,
    sample,
)
from .scores import ExactScoreOracle, ScoreOracle, calibrate_noise_scale, score_entropy_loss

# Per check, the sizes of each scale and the slacks that widen with fewer
# samples. Checks not listed (c04, c10, c11) run one size.
SCALES = {
    "c01": {"full": dict(max_D=8), "quick": dict(max_D=6)},
    "c02": {"full": dict(initials=100, max_D=10), "quick": dict(initials=20, max_D=8)},
    "c03": {
        "full": dict(draws=20, max_D=8, sample_dims=(4, 7, 10)),
        "quick": dict(draws=10, max_D=6, sample_dims=(4,)),
    },
    # plug-in TV threshold: multinomial slack over 64 states
    "c05": {"full": dict(n=200_000, max_tv=0.03), "quick": dict(n=20_000, max_tv=0.06)},
    # KL slack: estimation error of the smoothed law over 64 states
    "c06": {
        "full": dict(targets=(0.01, 0.04), grid=129, n=1_000_000, slack=0.02),
        "quick": dict(targets=(0.04,), grid=65, n=50_000, slack=0.06),
    },
    "c07": {"full": dict(max_D=10), "quick": dict(max_D=8)},
    # TV slack on top of the 5 eps bound: histogram estimation error
    "c08": {"full": dict(n=200_000, slack=0.03), "quick": dict(n=20_000, slack=0.06)},
    "c09": {"full": dict(n=2000), "quick": dict(n=500)},
}

# c10: the Euler step counts tried, and the number of exact draws whose
# mean plug-in TV an Euler law must reach to match uniformization.
EULER_LADDER = (32, 64, 128, 256, 512, 1024)
MATCH_DRAWS = 100_000


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
    max_D, tol = SCALES["c01"][scale]["max_D"], 1e-9
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
    size = SCALES["c02"][scale]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(size["initials"]):
        D = int(rng.integers(2, size["max_D"] + 1))
        initial = random_initial(rng, D, int(rng.integers(1, 9)))
        for t in (0.5, 1.0, 2.0, 4.0):
            kl = kl_exact(marginal_at(initial, t), np.full(1 << D, 2.0**-D))
            worst = max(worst, kl / (math.exp(-t) * D))
    detail = (
        f"forward KL decay envelope: max KL/(e^-t D) = {worst:.4f} over {size['initials']} "
        f"initials, D<={size['max_D']} (must be <= 1, no slack)"
    )
    return [CheckRow("kl_within_envelope", worst <= 1.0, worst, size["initials"], detail)]


def check_c03(scale: str, seed: int) -> list[CheckRow]:
    """Exact reverse rates stay under the tight bound, which stays under the
    sampler's cap, so exact scores never trigger truncation."""
    size = SCALES["c03"][scale]
    rng = np.random.default_rng(seed)
    worst, over_cap = 0.0, 0
    for _ in range(size["draws"]):
        D = int(rng.integers(2, size["max_D"] + 1))
        T = float(rng.uniform(1.0, 5.0))
        t = float(rng.uniform(0.0, T - 0.05))
        initial = random_initial(rng, D, int(rng.integers(1, 8)))
        total = dense_ratios(marginal_at(initial, T - t)).sum(axis=1)
        tight = D * (1.0 + 1.0 / (T - t))
        over_cap += tight > beta_value(D, T, t) + 1e-12
        worst = max(worst, float(total.max()) / tight)

    truncations = 0
    for D in size["sample_dims"]:
        spec = QuantizerSpec.from_grid(d=1, L=1.0, K=1 << D)
        initial = random_initial(rng, D, 6)
        config = SamplerConfig.default_schedule(spec, 0.1, seed=D)
        result = sample(config, ExactScoreOracle(initial, config.T), 2000)
        truncations += result.stats.truncation_activations
    detail = (
        f"exact reverse rates under the cap: max total-rate/tight-bound = {worst:.4f} (<= 1); "
        f"{truncations} truncation activations under exact scores on D in "
        f"{{{','.join(map(str, size['sample_dims']))}}} (expect 0); "
        f"tight bound above the beta cap on {over_cap} draws (expect 0)"
    )
    passed = worst <= 1.0 and truncations == 0 and over_cap == 0
    return [CheckRow("total_rate_under_cap", passed, worst, size["draws"], detail)]


def check_c04(scale: str, seed: int) -> list[CheckRow]:
    """Partition grids are valid, with caps at segment right endpoints,
    their expected event counts stay within the nominal budget, and the
    sampler's event count is Poisson-correct (same sizes at both scales;
    the sampler runs with seed 11 at full scale and `seed` at quick)."""
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
    mean = result.stats.poisson_events / n
    z = abs(mean - lam) / math.sqrt(lam / n)
    detail = (
        f"partition validity and event budget: max events/budget = {worst:.4f} over {draws} "
        f"draws (delta >= {min_delta}), {invalid} invalid grids or caps off the right "
        f"endpoints; empirical mean {mean:.2f} vs {lam:.2f} = {z:.2f} sigma at {_e(n)} "
        f"replicas (cap {max_z:g})"
    )
    passed = worst <= 1.0 and invalid == 0 and z <= max_z
    return [CheckRow("event_budget_and_count", passed, worst, draws, detail)]


def check_c05(scale: str, seed: int) -> list[CheckRow]:
    """The sampler's law equals the exact early-stopped law."""
    size = SCALES["c05"][scale]
    initial, config = d6_instance(seed)
    result = sample(config, ExactScoreOracle(initial, config.T), size["n"])
    target = exact_reverse_marginal(initial, config.T, config.T - config.delta)
    tv = tv_plugin(EmpiricalLaw.from_indices(state_to_index(result.states)), target)
    detail = (
        f"sampler law equals the exact early-stopped law: plug-in TV = {tv:.4f} at "
        f"{_e(size['n'])} replicas, D=6 (threshold {size['max_tv']:g})"
    )
    return [CheckRow("sampler_law_matches_exact", tv <= size["max_tv"], tv, size["n"], detail)]


def check_c06(scale: str, seed: int, targets=None) -> list[CheckRow]:
    """KL to the exact law grows at most (T - delta) times the score
    error, for oracles calibrated to each target score-entropy loss
    (the scale's targets unless `targets` names some)."""
    size = SCALES["c06"][scale]
    initial, config = d6_instance(seed)
    grid = np.linspace(1e-3, config.T, size["grid"])
    target = exact_reverse_marginal(initial, config.T, config.T - config.delta)
    rel_tol, n = 0.05, size["n"]
    rows = []
    for target_sq in targets or size["targets"]:
        oracle = calibrate_noise_scale(initial, config.T, target_sq, seed=77, time_grid=grid)
        measured = score_entropy_loss(oracle, initial, config.T, grid)
        calibrated = abs(measured - target_sq) <= rel_tol * target_sq
        detail = (
            f"score-error calibration {target_sq}: measured L_SE = {measured:.4f} "
            f"(target within rel {rel_tol:g})"
        )
        rows.append(CheckRow("score_error_calibrated", calibrated, measured, size["grid"], detail))
        law = EmpiricalLaw.from_indices(state_to_index(sample(config, oracle, n).states))
        kl = kl_exact(target, law.to_smoothed(len(target)))
        # exact-terminal initialization: the initial KL term is zero
        bound = (config.T - config.delta) * measured + size["slack"]
        detail = (
            f"KL growth under score error {target_sq}: smoothed KL = {kl:.4f} <= "
            f"(T-delta)*L_SE + {size['slack']:g} = {bound:.4f} "
            f"(measured L_SE = {measured:.4f}, {_e(n)} replicas)"
        )
        rows.append(CheckRow("kl_growth_within_budget", kl <= bound, kl, n, detail))
    return rows


def check_c07(scale: str, seed: int) -> list[CheckRow]:
    """Early stopping at delta costs at most 1 - e^(-delta D) in TV,
    computed exactly."""
    max_D = SCALES["c07"][scale]["max_D"]
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
    """End to end: samples of 0.5 N(-1.5, 0.5^2) + 0.5 N(+1.5, 0.5^2) on a
    64-cell grid are within 5 eps in continuous-histogram TV."""
    size = SCALES["c08"][scale]
    spec = QuantizerSpec.from_grid(d=1, L=4.0, K=64)
    edges = -spec.L + spec.l * np.arange(spec.K + 1)
    comp = lambda e, mu: norm.cdf((e - mu) / 0.5)
    cell_mass = 0.5 * np.diff(comp(edges, -1.5)) + 0.5 * np.diff(comp(edges, 1.5))
    states = vbin_encode(spec, np.arange(spec.K)[:, None])
    initial = EmpiricalInitial(states=states, weights=cell_mass / cell_mass.sum())

    eps = 0.1
    config = SamplerConfig.default_schedule(spec, eps, seed=seed)
    result = sample(config, ExactScoreOracle(initial, config.T), size["n"])
    tv = tv_continuous_histogram(result.x, cell_mass, spec)
    threshold = 5 * eps + size["slack"]
    detail = (
        f"end-to-end continuous TV on a Gaussian mixture: continuous-histogram TV = "
        f"{tv:.4f} at {_e(size['n'])} samples (threshold {threshold:g})"
    )
    return [CheckRow("gaussian_mixture_tv", tv <= threshold, tv, size["n"], detail)]


def check_c09(scale: str, seed: int) -> list[CheckRow]:
    """Mean events per replica stay within 2 D ln^2(D/eps) and scale with
    slope 1 against D ln^2(D/eps); every event costs D score evaluations."""
    n = SCALES["c09"][scale]["n"]
    rng = np.random.default_rng(seed)
    eps, dims = 0.1, (4, 8, 12, 16)
    means, miscounted = [], 0
    for D in dims:
        spec = QuantizerSpec.from_grid(d=1, L=1.0, K=1 << D)
        initial = random_initial(rng, D, 16)
        config = SamplerConfig.default_schedule(spec, eps, seed=100 + D)
        stats = sample(config, ExactScoreOracle(initial, config.T), n).stats
        miscounted += stats.score_evals != stats.poisson_events * D
        means.append(stats.poisson_events / n)
    envelope = [2.0 * D * math.log(D / eps) ** 2 for D in dims]
    within = all(m <= e for m, e in zip(means, envelope))
    x = np.log([D * math.log(D / eps) ** 2 for D in dims])
    slope = float(np.polyfit(x, np.log(means), 1)[0])
    lo, hi = 0.8, 1.2
    detail = (
        f"score-evaluation complexity scaling: mean events {[round(m, 1) for m in means]} "
        f"within 2 D ln^2(D/eps) {[round(e, 1) for e in envelope]}; log-log slope vs "
        f"D ln^2(D/eps) = {slope:.3f} (required within [{lo}, {hi}]); "
        f"{miscounted} runs with score_evals != D * events (expect 0)"
    )
    passed = within and lo <= slope <= hi and miscounted == 0
    return [CheckRow("complexity_slope", passed, slope, n * len(dims), detail)]


def cap_totals(rates: np.ndarray, cap) -> np.ndarray:
    """Per-flip rates (B, D) with each row whose total exceeds `cap`
    scaled down to total `cap`."""
    total = rates.sum(axis=1, keepdims=True)
    return rates * np.divide(cap, total, out=np.ones_like(total), where=total > cap)


def euler_law(oracle: ScoreOracle, config: SamplerConfig, n_steps: int) -> np.ndarray:
    """Exact law of the Euler baseline after n_steps equal steps of length
    h over [0, T - delta], from the config's initial law (D <= 12). Step k
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
        law = law + flip_generator(cap_totals(h * rates, 1.0)) @ law
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
    target = exact_reverse_marginal(initial, config.T, config.T - config.delta)
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
