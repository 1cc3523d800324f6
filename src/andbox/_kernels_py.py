# perfbench/run.py imports this module; the kernel is defined in kernels.py.
from .kernels import EXHAUSTED, FOUND, NOT_MEMBER, search_order  # noqa: F401
