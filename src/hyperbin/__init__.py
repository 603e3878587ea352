"""hyperbin: histogram quantization of continuous data onto a binary
hypercube, an exactly solvable bit-flip forward chain, and unbiased
reverse-time sampling via rate-capped uniformization. Names are imported
from the submodules; this file loads none of them."""

__version__ = "0.1.0"
