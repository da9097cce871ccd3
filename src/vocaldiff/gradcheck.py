"""Finite-difference verification of autodiff gradients.

Central differences in float64 against a taped backward pass.  Agreement is
scored per tensor with an infinity-norm relative error so one bad component
cannot hide inside a large tensor.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .tensor import Tape, Tensor, backward


def rel_error(approx: np.ndarray, exact: np.ndarray,
              floor: float = 1e-12) -> float:
    """max|a - e| / max(max|a|, max|e|, floor).

    ``floor`` guards tensors whose true gradient is structurally zero (a
    bias feeding straight into a normalizer, say): there both sides are
    roundoff and a pure ratio would report noise as disagreement.
    """
    num = float(np.max(np.abs(approx - exact))) if approx.size else 0.0
    den = max(float(np.max(np.abs(approx))) if approx.size else 0.0,
              float(np.max(np.abs(exact))) if exact.size else 0.0,
              floor)
    return num / den


def numeric_grad(f: Callable[[], Tensor], param: Tensor,
                 eps: float = 1e-3,
                 indices: Optional[Sequence[tuple]] = None) -> np.ndarray:
    """Central-difference d f / d param, evaluated without any tape.

    ``f`` must re-read ``param.data`` on every call.  If ``indices`` is
    given only those components are probed (the rest stay zero); that keeps
    whole-model checks affordable.
    """
    flat = param.data.reshape(-1)
    grad = np.zeros(flat.shape, dtype=np.float64)
    if indices is None:
        probe = range(flat.size)
    else:
        probe = [int(np.ravel_multi_index(ix, param.shape)) for ix in indices]
    for i in probe:
        orig = flat[i]
        flat[i] = orig + eps
        hi = f().item()
        flat[i] = orig - eps
        lo = f().item()
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * eps)
    return grad.reshape(param.shape)


def check_gradients(f: Callable[[], Tensor], params: dict[str, Tensor],
                    eps: float = 1e-3,
                    indices: Optional[dict[str, Sequence[tuple]]] = None,
                    probes: Optional[int] = None,
                    floor: float = 1e-12) -> dict[str, float]:
    """Compare taped gradients of ``f()`` against central differences.

    Returns {param name -> infinity-norm relative error}.  Params should be
    float64 for the stated tolerances to be meaningful.  ``indices`` pins the
    probed components per param; ``probes`` instead checks the N largest
    analytic components of each tensor, which keeps whole-model sweeps
    affordable without landing on near-zero entries where central
    differences are all cancellation noise.
    """
    for t in params.values():
        t.requires_grad = True
    with Tape() as tape:
        loss = f()
        grads = backward(loss)
    errors = {}
    for name, t in params.items():
        # a node id left over from an earlier tape names another node here
        entry = grads.get(t.node_id) if t._tape is tape else None
        if entry is None:
            # parameter never entered the graph; analytic gradient is zero
            # and the numeric probe below verifies that independently
            exact = np.zeros(t.shape, dtype=np.float64)
        else:
            exact = entry.data.astype(np.float64)
        ix = indices.get(name) if indices else None
        if ix is None and probes is not None and t.size > probes:
            flat = np.abs(exact).reshape(-1)
            top = np.argpartition(flat, -probes)[-probes:]
            ix = [np.unravel_index(int(i), t.shape) for i in top]
        approx = numeric_grad(f, t, eps=eps, indices=ix)
        if ix is not None:
            mask = np.zeros(t.shape, dtype=bool)
            for tup in ix:
                mask[tup] = True
            errors[name] = rel_error(approx[mask], exact[mask], floor=floor)
        else:
            errors[name] = rel_error(approx, exact, floor=floor)
    return errors
