"""Toolkit for the deformed, matrix-valued second Painlevé system.

Exact noncommutative polynomial algebra with rewriting, symbolic
zero-curvature derivations, quasideterminants over generic carriers, and
numeric dressing chains with quasideterminant solution forms.
"""

__version__ = "0.1.0"


class QpiiError(Exception):
    """Base class of every error a computation raises; the CLI reports it."""
