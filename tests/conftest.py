"""Shared test fixtures."""

import numpy as np
import pytest

from lvr_lab.lvr_action import evaluator


def _homotopy_logs(s_batch, params):
    """Reference logs of the action for (k, n) spectra: log|w(1)| plus the
    phase of w tracked with np.unwrap along a 48-node grid t -> t lam,
    from w(0) = 1.  Returns the (k, n, n) matrix and (k, n) vector logs."""
    p, lam = params.p, params.lam
    ts = np.linspace(0.0, 1.0, 48)
    s = np.asarray(s_batch, dtype=complex)
    z = -(ts[:, None, None] * lam) * s[None] ** (p - 1)
    a = s[None] * evaluator(p).tp_eval_many(z.ravel()).reshape(z.shape)
    tl = (ts * lam)[:, None, None]
    pair = np.zeros(a.shape + a.shape[-1:], dtype=complex)
    for k in range(p):
        pair += a[..., :, None] ** k * a[..., None, :] ** (p - 1 - k)
    w_mat = 1 + tl[..., None] * pair
    logs = []
    for w in (w_mat, 1 + tl * a ** (p - 1)):
        theta = np.unwrap(np.angle(w), axis=0)
        # the grid resolves the path: no phase step reaches pi/2
        assert np.max(np.abs(np.diff(theta, axis=0)), initial=0.0) < np.pi / 2
        logs.append(np.log(np.abs(w[-1])) + 1j * theta[-1])
    return tuple(logs)


@pytest.fixture(scope="session")
def homotopy_logs():
    return _homotopy_logs
