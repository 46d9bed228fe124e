"""Recurrent cells and parameter initialization shared by encoders and taggers.

Each cell runs a whole sequence as one fused graph op. The forward pass
projects all inputs before the loop (one matmul per gate matrix, into
one preallocated matrix), adds the knowledge terms to that projection
as a constant bias, and loops over the steps with one recurrent matvec
per gate group, writing every gate and state into its preallocated row.
The backward pass is a hand-written backpropagation through time over
the stored gate values, with one matmul or sum per weight and input
after the loop. Parameters stay one matrix per gate, as checkpoints
store them; the GRU stacks [U_r; U_z] once per call, for both passes.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import DimensionError


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Uniform(-s, s) with s = sqrt(6 / (fan_in + fan_out))."""
    s = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-s, s, size=(rows, cols)))


def zero_vector(n: int) -> Tensor:
    return Tensor(np.zeros(n))


class _Recurrence:
    """Input projection and its gradients, shared by both fused cells.

    A cell sets GATES, OP and `input_weights` (one per gate) and defines
    `_recur(proj)`, returning the T + 1 states from the zero state and a
    closure from state to pre-activation gradients. Projecting gate by
    gate builds `X @ [W_1; ...; W_k]ᵀ` without a stacked weight copy.
    """

    def sequence(self, x: Tensor, guided: Tensor | None = None,
                 know: dict[str, Tensor] | None = None,
                 last: bool = False) -> Tensor:
        """All hidden states (T, H) of a run from the zero state over x (T, E),
        or with `last` only the final state (H,).

        `know` maps any subset of GATES to a (H, K) projection of the
        guided vector (K,) into that gate's pre-activation at every step.
        """
        if x.value.ndim != 2 or x.shape[0] < 1 or x.shape[1] != self.input_dim:
            raise DimensionError(
                f"recurrence input must be a non-empty (length, "
                f"{self.input_dim}) matrix, got {x.shape}")
        hd, weights = self.hidden_dim, self.input_weights
        know = (know or {}) if guided is not None else {}
        projs = [know.get(g) for g in self.GATES]
        proj = np.empty((x.shape[0], len(weights) * hd))
        for i, (w, k) in enumerate(zip(weights, projs)):
            block = np.matmul(x.value, w.value.T, out=proj[:, i * hd:(i + 1) * hd])
            if k is not None:
                block += k.value @ guided.value
        states, bptt = self._recur(proj)
        used = [k for k in projs if k is not None]
        # guided after x: the backward pass reaches x's embedding first.
        out = Tensor(states[-1] if last else states[1:], self.OP,
                     (x, *self.params("").values(), *([guided, *used] if used else [])))

        def bw(g):
            # With `last`, the other states get no gradient from outside.
            d_pre = bptt(np.vstack([np.zeros((x.shape[0] - 1, hd)), g]) if last else g)
            for i, (w, k) in enumerate(zip(weights, projs)):
                d_gate = d_pre[:, i * hd:(i + 1) * hd]
                w._accumulate(d_gate.T @ x.value)
                x._accumulate(d_gate @ w.value)
                if k is not None:
                    d_term = d_gate.sum(axis=0)
                    k._accumulate(np.outer(d_term, guided.value))
                    guided._accumulate(k.value.T @ d_term)
        out._backward = bw
        return out


class ElmanCell(_Recurrence):
    """h_t = tanh(W x_t + U h_{t-1} [+ K_cand g]); no bias in the recurrence."""

    GATES = ("cand",)
    OP = "elman_sequence"

    def __init__(self, rng: np.random.Generator, input_dim: int, hidden_dim: int):
        self.input_dim, self.hidden_dim = input_dim, hidden_dim
        self.w_in = glorot_uniform(rng, hidden_dim, input_dim)
        self.u_rec = glorot_uniform(rng, hidden_dim, hidden_dim)
        self.input_weights = [self.w_in]

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w_in": self.w_in, f"{prefix}.u_rec": self.u_rec}

    def _recur(self, proj: np.ndarray):
        u, n = self.u_rec.value, proj.shape[0]
        states = np.zeros((n + 1, self.hidden_dim))
        for t in range(n):
            np.tanh(proj[t] + u @ states[t], out=states[t + 1])

        def bptt(g):
            dtanh = 1.0 - states[1:] * states[1:]
            d_pre = np.empty_like(proj)
            dh = np.zeros(self.hidden_dim)
            for t in reversed(range(n)):
                dh = np.multiply(dh + g[t], dtanh[t], out=d_pre[t]) @ u
            self.u_rec._accumulate(d_pre.T @ states[:-1])
            return d_pre
        return states, bptt


class GruCell(_Recurrence):
    """Gated recurrent unit: reset and update gates, interpolated state.

        r   = sigmoid(W_r x_t + U_r h_{t-1} [+ K_r g])
        z   = sigmoid(W_z x_t + U_z h_{t-1} [+ K_z g])
        h~  = tanh(W_h x_t + U_h (h_{t-1} * r) [+ K_h g])
        h_t = (1 - z) * h~ + z * h_{t-1}

    The optional K g terms project the per-utterance guided vector g into
    each gate's pre-activation. sigmoid(a) = 1 / (1 + exp(-a)), computed
    in place; it saturates to exactly 0 (exp overflows) and 1.
    """

    GATES = ("reset", "update", "cand")
    OP = "gru_sequence"

    def __init__(self, rng: np.random.Generator, input_dim: int, hidden_dim: int):
        self.input_dim, self.hidden_dim = input_dim, hidden_dim
        self.w = {g: glorot_uniform(rng, hidden_dim, input_dim) for g in self.GATES}
        self.u = {g: glorot_uniform(rng, hidden_dim, hidden_dim) for g in self.GATES}
        self.input_weights = [self.w[g] for g in self.GATES]

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for g in self.GATES:
            out[f"{prefix}.w_{g}"] = self.w[g]
            out[f"{prefix}.u_{g}"] = self.u[g]
        return out

    def _recur(self, proj: np.ndarray):
        hd, n = self.hidden_dim, proj.shape[0]
        u_rz = np.vstack([self.u["reset"].value, self.u["update"].value])
        u_c = self.u["cand"].value
        states = np.zeros((n + 1, hd))
        rz = np.empty((n, 2 * hd))    # reset and update gate values
        cand = np.empty((n, hd))
        keep = np.empty(hd)           # (1 - z) * h~, the candidate's share
        with np.errstate(over="ignore"):    # exp(-a) = inf for a < -709
            for h, h_next, gates, c, p in zip(states[:-1], states[1:], rz, cand, proj):
                np.add(np.matmul(u_rz, h, out=gates), p[:2 * hd], out=gates)
                np.exp(np.negative(gates, out=gates), out=gates)
                np.divide(1.0, np.add(gates, 1.0, out=gates), out=gates)
                z = gates[hd:]
                # h_next holds r * h until the new state overwrites it.
                np.matmul(u_c, np.multiply(gates[:hd], h, out=h_next), out=c)
                np.tanh(np.add(c, p[2 * hd:], out=c), out=c)
                np.multiply(np.subtract(1.0, z, out=keep), c, out=keep)
                np.add(np.multiply(z, h, out=h_next), keep, out=h_next)

        def bptt(g):
            h_prev, r, z = states[:-1], rz[:, :hd], rz[:, hd:]
            # Per-step factors that do not depend on the incoming gradient.
            to_cand = (1.0 - z) * (1.0 - cand * cand)
            to_update = (h_prev - cand) * z * (1.0 - z)
            to_reset = h_prev * r * (1.0 - r)
            d_pre = np.empty_like(proj)
            dh = np.zeros(hd)
            for t in reversed(range(n)):
                dh = dh + g[t]
                d_step = d_pre[t]
                d_reset_h = np.multiply(dh, to_cand[t], out=d_step[2 * hd:]) @ u_c
                np.multiply(d_reset_h, to_reset[t], out=d_step[:hd])
                np.multiply(dh, to_update[t], out=d_step[hd:2 * hd])
                dh = dh * z[t] + d_reset_h * r[t] + d_step[:2 * hd] @ u_rz
            d_u_rz = d_pre[:, :2 * hd].T @ h_prev
            self.u["reset"]._accumulate(d_u_rz[:hd])
            self.u["update"]._accumulate(d_u_rz[hd:])
            self.u["cand"]._accumulate(d_pre[:, 2 * hd:].T @ (r * h_prev))
            return d_pre
        return states, bptt


def make_cell(kind: str, rng: np.random.Generator, input_dim: int,
              hidden_dim: int):
    if kind == "elman":
        return ElmanCell(rng, input_dim, hidden_dim)
    if kind == "gru":
        return GruCell(rng, input_dim, hidden_dim)
    raise ValueError(f"unknown recurrent cell kind {kind!r}")
