"""Two gradient oracles for checking the analytic backward pass.

The first, :func:`oracle_loss_and_grads`, is a deliberately naive tape
autodiff: every scalar in the unfolded forward
pass becomes a node, every dependency an explicit edge with its local
derivative, and the backward sweep walks the tape node by node.  The
forward semantics (reset rules, pooled-statistics normalization, the
box-window spike derivative, warmup-discarded mean-square loss) are
rebuilt here from scratch so the fast vectorized implementation is
checked against an independent derivation, not against itself.

The second, :func:`numeric_grad_oracle`, differentiates the matching
*linearized* network (spikes replaced by their first-order model around
a recorded trajectory) by central differences.

Slow on purpose; intended for tiny networks only.
"""

import numpy as np

from snndecode import batchnorm
from snndecode.network import NetworkParams, NetworkSpec, _layer_normalized
from snndecode.neuron import RESET_SUBTRACT, surrogate_grad


class Var:
    __slots__ = ("val", "grad", "edges")

    def __init__(self, val, edges=()):
        self.val = float(val)
        self.grad = 0.0
        self.edges = edges


class Tape:
    def __init__(self):
        self.nodes = []

    def var(self, val, edges=()):
        v = Var(val, edges)
        self.nodes.append(v)
        return v

    def const(self, val):
        return self.var(val)

    def add(self, a, b):
        return self.var(a.val + b.val, ((a, 1.0), (b, 1.0)))

    def sub(self, a, b):
        return self.var(a.val - b.val, ((a, 1.0), (b, -1.0)))

    def mul(self, a, b):
        return self.var(a.val * b.val, ((a, b.val), (b, a.val)))

    def scale(self, a, c):
        return self.var(a.val * c, ((a, c),))

    def shift(self, a, c):
        return self.var(a.val + c, ((a, 1.0),))

    def inv_sqrt(self, a):
        v = 1.0 / np.sqrt(a.val)
        return self.var(v, ((a, -0.5 * v ** 3),))

    def spike(self, u, threshold, half_width=0.5):
        fired = 1.0 if u.val >= threshold else 0.0
        window = 1.0 if abs(u.val - threshold) < half_width else 0.0
        return self.var(fired, ((u, window),))

    def mean(self, xs):
        total = xs[0]
        for x in xs[1:]:
            total = self.add(total, x)
        return self.scale(total, 1.0 / len(xs))

    def backward(self, out):
        out.grad = 1.0
        for node in reversed(self.nodes):
            if node.grad != 0.0:
                for parent, d in node.edges:
                    parent.grad += node.grad * d


def _to_vars(tape, array):
    return [[tape.var(v) for v in row] for row in np.atleast_2d(array)]


def oracle_loss_and_grads(weights, taus, gammas, betas, window, targets,
                          masks, *, threshold, reset_mode,
                          normalize_output, warmup, eps=1e-5,
                          half_width=0.5):
    """Loss and parameter gradients of the unfolded training pass.

    Parameters mirror the real network: ``weights[l]`` is (out, in),
    ``taus``/``gammas``/``betas`` are per-layer vectors, ``window`` is
    (B, T, in), ``targets`` is (B, T, out), and ``masks[l]`` is either
    None or the (B, T, w) *scaled* dropout mask actually applied to
    hidden layer ``l``'s spikes.  Normalization always runs in training
    mode: per-channel statistics pooled over batch and time.

    Returns ``(loss, w_grads, tau_grads, gamma_grads, beta_grads)`` with
    gradients as numpy arrays shaped like their parameters.
    """
    window = np.asarray(window, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if window.ndim == 2:
        window = window[None]
    if targets.ndim == 2:
        targets = targets[None]
    t = Tape()
    n_layers = len(weights)
    B, T, _ = window.shape

    w_vars = [_to_vars(t, w) for w in weights]
    tau_vars = [[t.var(v) for v in tau] for tau in taus]
    g_vars = [[t.var(v) for v in g] for g in gammas]
    b_vars = [[t.var(v) for v in b] for b in betas]

    # act[b][ti] is the list of scalar activations feeding the next layer
    act = [[[t.const(window[b, ti, i]) for i in range(window.shape[2])]
            for ti in range(T)] for b in range(B)]

    preds = None
    for l in range(n_layers):
        is_output = l == n_layers - 1
        width = len(weights[l])

        cur = [[[None] * width for _ in range(T)] for _ in range(B)]
        for b in range(B):
            for ti in range(T):
                for j in range(width):
                    s = t.mul(w_vars[l][j][0], act[b][ti][0])
                    for i in range(1, len(act[b][ti])):
                        s = t.add(s, t.mul(w_vars[l][j][i], act[b][ti][i]))
                    cur[b][ti][j] = s

        if (not is_output) or normalize_output:
            normed = [[[None] * width for _ in range(T)] for _ in range(B)]
            for j in range(width):
                pooled = [cur[b][ti][j] for b in range(B) for ti in range(T)]
                mu = t.mean(pooled)
                devsq = [t.mul(t.sub(x, mu), t.sub(x, mu)) for x in pooled]
                var = t.mean(devsq)
                istd = t.inv_sqrt(t.shift(var, eps))
                for b in range(B):
                    for ti in range(T):
                        xh = t.mul(t.sub(cur[b][ti][j], mu), istd)
                        normed[b][ti][j] = t.add(
                            t.scale(t.mul(g_vars[l][j], xh), threshold),
                            b_vars[l][j])
        else:
            normed = cur

        if is_output:
            preds = [[[None] * width for _ in range(T)] for _ in range(B)]
            for b in range(B):
                u_prev = [t.const(0.0)] * width
                for ti in range(T):
                    for j in range(width):
                        u = t.add(t.mul(tau_vars[l][j], u_prev[j]),
                                  normed[b][ti][j])
                        preds[b][ti][j] = u
                    u_prev = preds[b][ti]
        else:
            out_act = [[[None] * width for _ in range(T)] for _ in range(B)]
            for b in range(B):
                u_prev = [t.const(0.0)] * width
                s_prev = [t.const(0.0)] * width
                for ti in range(T):
                    u_now, s_now = [], []
                    for j in range(width):
                        if reset_mode == "subtract":
                            kept = t.sub(u_prev[j],
                                         t.scale(s_prev[j], threshold))
                        else:
                            kept = t.mul(u_prev[j],
                                         t.shift(t.scale(s_prev[j], -1.0), 1.0))
                        u = t.add(t.mul(tau_vars[l][j], kept),
                                  normed[b][ti][j])
                        s = t.spike(u, threshold, half_width)
                        u_now.append(u)
                        s_now.append(s)
                        if masks[l] is not None:
                            out_act[b][ti][j] = t.scale(
                                s, float(masks[l][b, ti, j]))
                        else:
                            out_act[b][ti][j] = s
                    u_prev, s_prev = u_now, s_now
            act = out_act

    kept_terms = []
    out_width = targets.shape[2]
    for b in range(B):
        for ti in range(warmup, T):
            for j in range(out_width):
                d = t.shift(preds[b][ti][j], -targets[b, ti, j])
                kept_terms.append(t.mul(d, d))
    loss = t.mean(kept_terms)
    t.backward(loss)

    w_grads = [np.array([[v.grad for v in row] for row in wl]) for wl in w_vars]
    tau_grads = [np.array([v.grad for v in tl]) for tl in tau_vars]
    gamma_grads = [np.array([v.grad for v in gl]) for gl in g_vars]
    beta_grads = [np.array([v.grad for v in bl]) for bl in b_vars]
    return loss.val, w_grads, tau_grads, gamma_grads, beta_grads


def _linearized_loss(weights, taus, gammas, betas, spec, window, targets,
                     masks, anchors, warmup_discard):
    """Loss of the spike-linearized network at the given raw parameters.

    ``anchors`` holds, per hidden layer, the recorded ``(u_ref, s_ref,
    g_ref)`` trajectory; each spike is replaced by
    ``s_ref + g_ref * (u - u_ref)``, the first-order model whose exact
    gradient the analytic backward pass computes.  Everything runs in
    float64, training-mode normalization statistics included.
    """
    act = window
    B, T, _ = window.shape
    preds = None
    for l in range(spec.n_layers):
        is_output = l == spec.n_layers - 1
        width = weights[l].shape[0]
        cur = np.einsum("bti,ji->btj", act, weights[l])
        if _layer_normalized(spec, l):
            mean, var = batchnorm.batch_stats(cur)
            normed, _, _ = batchnorm.normalize(
                cur, mean, var, gammas[l], betas[l], spec.threshold,
                spec.bn_eps)
        else:
            normed = cur

        if is_output:
            preds = np.empty((B, T, width))
            u_t = np.zeros((B, width))
            for t in range(T):
                u_t = taus[l] * u_t + normed[:, t, :]
                preds[:, t, :] = u_t
        else:
            u_ref, s_ref, g_ref = anchors[l]
            out = np.empty((B, T, width))
            u_t = np.zeros((B, width))
            s_t = np.zeros((B, width))
            for t in range(T):
                if spec.reset_mode == RESET_SUBTRACT:
                    u_t = taus[l] * (u_t - s_t * spec.threshold) + normed[:, t, :]
                else:
                    u_t = taus[l] * (u_t * (1.0 - s_t)) + normed[:, t, :]
                s_t = s_ref[:, t, :] + g_ref[:, t, :] * (u_t - u_ref[:, t, :])
                out[:, t, :] = s_t
            act = out * masks[l] if masks[l] is not None else out

    diff = preds[:, warmup_discard:, :] - targets[:, warmup_discard:, :]
    return float(np.mean(diff * diff))


def numeric_grad_oracle(params: NetworkParams, spec: NetworkSpec,
                        window: np.ndarray, targets: np.ndarray,
                        coordinate, *, warmup_discard: int = 0,
                        masks=None, h: float = 1e-3) -> float:
    """Central-difference derivative of the linearized-network loss.

    ``coordinate`` is ``(layer_index, field, flat_index)`` with field one
    of ``"weight"``, ``"tau"``, ``"gamma"``, ``"beta"``.  The reference
    trajectory (spike values and surrogate windows) is recorded at the
    unperturbed parameters and frozen, so the finite difference probes
    exactly the function whose gradient :func:`backward` computes.
    ``masks`` may carry the scaled dropout masks of a recorded training
    forward (one entry per layer, None where dropout did not act).

    Intended for validation on tiny networks only.
    """
    window = np.asarray(window, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if window.ndim == 2:
        window = window[None]
    if targets.ndim == 2:
        targets = targets[None]
    if masks is None:
        masks = [None] * spec.n_layers

    weights = [l.weight.astype(np.float64) for l in params.layers]
    taus = [l.tau.astype(np.float64) for l in params.layers]
    gammas = [l.norm.gamma.astype(np.float64) for l in params.layers]
    betas = [l.norm.beta.astype(np.float64) for l in params.layers]
    masks = [None if m is None else np.asarray(m, dtype=np.float64)
             for m in masks]

    # reference trajectory: exact forward, anchors for the linearization
    anchors = []
    act = window
    for l in range(spec.n_layers - 1):
        cur = np.einsum("bti,ji->btj", act, weights[l])
        mean, var = batchnorm.batch_stats(cur)
        normed, _, _ = batchnorm.normalize(
            cur, mean, var, gammas[l], betas[l], spec.threshold, spec.bn_eps)
        B, T, width = normed.shape
        u_ref = np.empty_like(normed)
        s_ref = np.empty_like(normed)
        u_t = np.zeros((B, width))
        s_t = np.zeros((B, width))
        for t in range(T):
            if spec.reset_mode == RESET_SUBTRACT:
                u_t = taus[l] * (u_t - s_t * spec.threshold) + normed[:, t, :]
            else:
                u_t = taus[l] * (u_t * (1.0 - s_t)) + normed[:, t, :]
            s_t = (u_t >= spec.threshold).astype(np.float64)
            u_ref[:, t, :] = u_t
            s_ref[:, t, :] = s_t
        g_ref = surrogate_grad(u_ref, spec.threshold)
        anchors.append((u_ref, s_ref, g_ref))
        fed = s_ref * masks[l] if masks[l] is not None else s_ref
        act = fed

    field_map = {"weight": weights, "tau": taus, "gamma": gammas,
                 "beta": betas}
    layer_idx, field, flat = coordinate
    target_arr = field_map[field][layer_idx]
    base = target_arr.flat[flat]
    if base + h == base or base - h == base:
        raise ValueError(f"step size {h} underflows at value {base}")

    losses = []
    for delta in (h, -h):
        target_arr.flat[flat] = base + delta
        losses.append(_linearized_loss(
            weights, taus, gammas, betas, spec, window, targets, masks,
            anchors, warmup_discard))
    target_arr.flat[flat] = base
    return (losses[0] - losses[1]) / (2.0 * h)
