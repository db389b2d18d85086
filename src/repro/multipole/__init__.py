"""Solid-harmonic multipole machinery for the Laplace kernel."""

from .expansion import l2p, m2p, p2l, p2m
from .gradient import l2p_grad, m2p_grad, m2p_grad_rows
from .harmonics import coef_index, irregular_solid, ncoef, regular_solid, term_count
from .translations import l2l, m2l, m2m

__all__ = [
    "p2m",
    "m2p",
    "p2l",
    "l2p",
    "m2m",
    "m2l",
    "l2l",
    "m2p_grad",
    "m2p_grad_rows",
    "l2p_grad",
    "ncoef",
    "coef_index",
    "term_count",
    "regular_solid",
    "irregular_solid",
]
