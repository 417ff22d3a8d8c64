"""Toolkit for the deformed, matrix-valued second Painlevé system.

Exact noncommutative polynomial algebra with rewriting, symbolic
zero-curvature derivations, quasideterminants over generic carriers, and
numeric dressing chains with quasideterminant solution forms.
"""

__version__ = "0.1.0"
