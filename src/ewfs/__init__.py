"""Simulator and analysis toolkit for extended Wigner's-friend scenarios."""

__all__ = [
    "assumptions",
    "harness",
    "inequality",
    "models",
    "qcore",
    "scenario",
    "streams",
]

__version__ = "0.1.0"
