"""Property tests: the kinetic decay certificate and its optimiser.

Hypothesis draws weights (a, b, c) and model constants, both at random (NaN
and infinite weights included) and exactly on the boundaries ac = b^2 and
2b = c of the admissible set.
``hypocoercivity_certificate`` must either raise ``CertificateInfeasible`` or
return a positive rate whose eigenvalues agree with ``np.linalg.eigvalsh`` to
1e-12 of the matrix norm; an exact boundary point ac = b^2 is never rejected
by the weight-matrix constraints.  Every point ``optimize_omega`` returns must
pass ``hypocoercivity_certificate`` again.  Runs are derandomized.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noneq import CertificateInfeasible, hypocoercivity_certificate, optimize_omega

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

weights = st.one_of(st.floats(1e-6, 1e2), st.floats(-1.0, 1.0),
                    st.sampled_from([0.0, math.nan, math.inf]))
frictions = st.floats(1e-3, 1e3)
betas = st.floats(0.1, 10.0)
curvatures = st.floats(0.0, 10.0)
kappas = st.one_of(st.floats(0.1, 10.0), st.sampled_from([0.0, -1.0]))
# Integers of at most 7 bits scaled by powers of two: their products are exact.
dyadics = st.builds(lambda k, e: k * 2.0 ** e, st.integers(1, 127), st.integers(-14, 0))
# Weights that meet 2b > c and ac >= b^2 with room to spare for rounding, so
# that S~ > 0 decides.
admissible_weights = st.builds(
    lambda b, ratio, excess: (b / ratio * (1.0 + excess), b, b * ratio),
    st.floats(1e-6, 1.0), st.floats(0.01, 1.99), st.floats(1e-9, 10.0))


def weight_matrix(a, b, c):
    return np.array([[a, b], [b, c]])


def dissipation_matrix(a, b, c, xi, beta, hessian_bound):
    off = -(a + b * xi + c * hessian_bound)
    return np.array([[xi * (1.0 / beta + 2.0 * a) - 2.0 * b * (1.0 + hessian_bound), off],
                     [off, 2.0 * b - c]])


def certificate_or_error(a, b, c, xi, beta, hessian_bound, kappa):
    """The certificate, checked against eigvalsh, or the constraint it violates."""
    try:
        cert = hypocoercivity_certificate(a, b, c, xi, beta, hessian_bound, kappa)
    except CertificateInfeasible as exc:
        return exc.constraint
    s_mat = weight_matrix(a, b, c)
    tilde = dissipation_matrix(a, b, c, xi, beta, hessian_bound)
    assert cert.omega > 0
    assert abs(cert.lambda2 - np.linalg.eigvalsh(s_mat)[-1]) <= 1e-12 * np.linalg.norm(s_mat, 2)
    assert (abs(cert.lambda1_tilde - np.linalg.eigvalsh(tilde)[0])
            <= 1e-12 * np.linalg.norm(tilde, 2))
    return None


@PROPERTY
@given(a=weights, b=weights, c=weights, xi=frictions, beta=betas, hessian_bound=curvatures,
       kappa=kappas)
def test_certificate_matches_eigvalsh_or_raises(a, b, c, xi, beta, hessian_bound, kappa):
    certificate_or_error(a, b, c, xi, beta, hessian_bound, kappa)


@PROPERTY
@given(abc=admissible_weights, xi=frictions, beta=betas, hessian_bound=curvatures,
       kappa=kappas)
def test_admissible_weights_match_eigvalsh_or_fail_dissipation(abc, xi, beta, hessian_bound,
                                                               kappa):
    assert certificate_or_error(*abc, xi, beta, hessian_bound, kappa) in (None, "S~ > 0",
                                                                         "kappa > 0")


@PROPERTY
@given(t=dyadics, u=dyadics, xi=frictions, beta=betas, hessian_bound=curvatures,
       kappa=kappas)
def test_exact_determinant_boundary_is_admissible(t, u, xi, beta, hessian_bound, kappa):
    """On ac = b^2 exactly the weight matrix is singular but admissible."""
    a, b, c = t * t, t * u, u * u
    assert a * c == b * b
    violated = certificate_or_error(a, b, c, xi, beta, hessian_bound, kappa)
    assert violated not in ("ac >= b^2", "S >= 0")
    if 2.0 * b <= c:
        assert violated == "2b > c"


@pytest.mark.parametrize("hessian_bound", [0.0, 1.0])
def test_singular_weights_from_the_boundary(hessian_bound):
    """(1, 0.5, 0.25) has ac = b^2 and 2b > c: at a low temperature it is a
    valid certificate, with lambda2 = a + c."""
    cert = hypocoercivity_certificate(1.0, 0.5, 0.25, 1.0, 0.01, hessian_bound, 1.0)
    assert cert.lambda2 == 1.25
    assert certificate_or_error(1.0, 0.5, 0.25, 1.0, 0.01, hessian_bound, 1.0) is None


@PROPERTY
@given(b=dyadics, a=st.floats(0.0, 1e2), xi=frictions)
def test_equal_friction_boundary_is_rejected(b, a, xi):
    """2b = c violates 2b > c, whatever the rest."""
    assert certificate_or_error(a, b, 2.0 * b, xi, 1.0, 1.0, 1.0) == "2b > c"


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(xi=frictions, beta=betas, hessian_bound=curvatures, kappa=st.floats(0.1, 10.0))
def test_optimised_point_is_accepted_again(xi, beta, hessian_bound, kappa):
    try:
        cert = optimize_omega(xi, beta, hessian_bound, kappa, grid_points=8, refine_starts=2)
    except CertificateInfeasible as exc:
        assert exc.constraint == "feasible set"
        return
    again = hypocoercivity_certificate(cert.a, cert.b, cert.c, xi, beta, hessian_bound, kappa)
    assert again.omega == cert.omega > 0
    assert certificate_or_error(cert.a, cert.b, cert.c, xi, beta, hessian_bound, kappa) is None
