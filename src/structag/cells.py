"""Recurrent cells and parameter initialization shared by encoders and taggers.

Each cell runs a whole sequence as one fused graph op. The forward pass
projects all inputs before the loop (one matmul per gate matrix), adds
the knowledge terms to that projection as a constant bias, and loops
over the steps with one recurrent matvec per gate group. The backward
pass is a hand-written backpropagation through time over the stored
gate values, with one matmul or sum per weight and input after the
loop. Parameters stay one matrix per gate, as checkpoints store them.
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

    def sequence(self, x: Tensor,
                 extra: dict[str, Tensor] | None = None) -> Tensor:
        """All hidden states (T, H) of a run from the zero state over x (T, E).

        `extra` maps any subset of GATES to that gate's knowledge term.
        """
        if x.value.ndim != 2 or x.shape[0] < 1 or x.shape[1] != self.input_dim:
            raise DimensionError(
                f"recurrence input must be a non-empty (length, "
                f"{self.input_dim}) matrix, got {x.shape}")
        hd, weights = self.hidden_dim, self.input_weights
        extras = [(extra or {}).get(g) for g in self.GATES]
        proj = np.hstack([x.value @ w.value.T for w in weights])
        for i, e in enumerate(extras):
            if e is not None:
                proj[:, i * hd:(i + 1) * hd] += e.value
        states, bptt = self._recur(proj)
        out = Tensor(states[1:], self.OP, (x, *self.params("").values(),
                                           *(e for e in extras if e is not None)))

        def bw(g):
            d_pre = bptt(g)
            for i, (w, e) in enumerate(zip(weights, extras)):
                d_gate = d_pre[:, i * hd:(i + 1) * hd]
                w._accumulate(d_gate.T @ x.value)
                x._accumulate(d_gate @ w.value)
                if e is not None:
                    e._accumulate(d_gate.sum(axis=0))
        out._backward = bw
        return out


class ElmanCell(_Recurrence):
    """h_t = tanh(W x_t + U h_{t-1} [+ extra_cand]); no bias in the recurrence."""

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

        r   = sigmoid(W_r x_t + U_r h_{t-1} [+ extra_r])
        z   = sigmoid(W_z x_t + U_z h_{t-1} [+ extra_z])
        h~  = tanh(W_h x_t + U_h (h_{t-1} * r) [+ extra_h])
        h_t = (1 - z) * h~ + z * h_{t-1}

    The optional extras are per-utterance knowledge terms added to each
    gate's pre-activation.
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
        for t in range(n):
            h = states[t]
            a = proj[t, :2 * hd] + u_rz @ h
            e = np.exp(-np.abs(a))    # sigmoid split by sign: exp cannot overflow
            gates = np.divide(np.where(a >= 0, 1.0, e), 1.0 + e, out=rz[t])
            z = gates[hd:]
            c = np.tanh(proj[t, 2 * hd:] + u_c @ (gates[:hd] * h), out=cand[t])
            np.add((1.0 - z) * c, z * h, out=states[t + 1])

        def bptt(g):
            u_rz = np.vstack([self.u["reset"].value, self.u["update"].value])
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
