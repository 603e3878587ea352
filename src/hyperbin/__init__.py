"""hyperbin: histogram quantization of continuous data onto a binary
hypercube, an exactly solvable bit-flip forward chain, and unbiased
reverse-time sampling via rate-capped uniformization."""

from .quantizer import (
    QuantizerSpec,
    derive_spec,
    quantize_point,
    vbin_encode,
    vbin_decode,
    cell_bounds,
    dequantize_sample,
    quantize_dataset,
    save_spec,
    load_spec,
)
from .chain import (
    EmpiricalInitial,
    flip_probability,
    sample_forward,
    marginal_at,
    dense_rate_matrix,
    kl_to_uniform,
)
from .scores import (
    ScoreOracle,
    ExactScoreOracle,
    PerturbedScoreOracle,
    score_entropy_loss,
    calibrate_noise_scale,
    bregman_phi,
)
from .sampler import (
    TimePartition,
    SamplerConfig,
    RunStats,
    SampleResult,
    beta_value,
    build_partition,
    sample,
    euler_sample,
    exact_reverse_marginal,
)
from .adjacency import build_rate_matrix, graph_report, heat_kernel, mixing_time
from .metrics import (
    EmpiricalLaw,
    tv_exact,
    tv_plugin,
    kl_exact,
    tv_continuous_histogram,
)

__version__ = "0.1.0"
