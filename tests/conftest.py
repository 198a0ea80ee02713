"""Shared pytest configuration for the tauberlab test suite."""

from hypothesis import HealthCheck, settings

from tauberlab import atoms

# Quadrature-backed properties can exceed the default 200 ms deadline on a
# loaded machine; correctness is grid-driven, not time-driven.
settings.register_profile(
    "tauberlab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("tauberlab")


def prop52_inputs(fam, z_samples=None):
    """The t grid, z samples and (L, N) log pair that atoms verify hands to
    verify_prop52: the default grid, and the default z samples unless
    given.  Call as verify_prop52(fam, *prop52_inputs(fam))."""
    t = atoms.default_t_grid(fam)
    zs = atoms.default_z_samples(fam) if z_samples is None else z_samples
    return t, zs, (atoms.laplace_L_log(fam, t), atoms.primitive_N_log(fam, t))
