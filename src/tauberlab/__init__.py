"""Desk-scale numerical laboratory for quantified energy decay rates.

Modules: ``weights`` (rate bounds, spectral regions, log-corrected
weights), ``atoms`` (matched bump families and their envelopes),
``contour`` (transform-inversion quadrature), ``semigroup`` (damped-wave
systems, sandwiches, cutoff identities), ``counterexamples`` (divergent
block trains and shift probes), ``cli`` (scenario runner).

The package imports none of them by itself, so each command-line
scenario loads only the layers it runs.
"""
__version__ = "0.1.0"
