"""Recurrent cells and parameter initialization shared by encoders and taggers.

A cell is its gate list. For every gate it holds an input weight and a
recurrence weight and, in a knowledge-guided tagger tower, a projection
of the guided vector. Every run is one fused graph op from one builder:
a whole sequence, or for the GRU a ragged batch of sequences read at
their final states. The forward pass projects all inputs before the loop
(one matmul per gate, into one preallocated matrix), adds the knowledge
terms to that projection as a constant bias, and loops over the steps
with one recurrent product per gate group, writing every gate and state
into its preallocated rows. The backward pass is a hand-written
backpropagation through time over the stored gate values, with one
matmul or sum per weight and input after the loop. Parameters stay one
matrix per gate, as checkpoints store them; the GRU negates U_r and U_z
into one stacked buffer once per call, for both passes.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import DimensionError


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Uniform(-s, s) with s = sqrt(6 / (fan_in + fan_out))."""
    s = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-s, s, size=(rows, cols)))


def check_rows(x: Tensor, dim: int, what: str):
    """Raise unless x is a non-empty (length, dim) matrix."""
    if x.value.ndim != 2 or x.shape[0] < 1 or x.shape[1] != dim:
        raise DimensionError(
            f"{what} must be a non-empty (length, {dim}) matrix, got {x.shape}")


def check_runs(x: Tensor, dim: int, lengths: list[int]) -> np.ndarray:
    """The run lengths as an array, if runs of >= 1 rows cover x (T, dim)."""
    check_rows(x, dim, "final_states input")
    if sum(lengths) != x.shape[0] or min(lengths) < 1:
        raise DimensionError(f"final_states: runs {list(lengths)} must have "
                             f"length >= 1 and cover all {x.shape[0]} rows")
    return np.array(lengths, dtype=int)


def zero_vector(n: int) -> Tensor:
    return Tensor(np.zeros(n))


class _Recurrence:
    """Parameters and the one graph-op builder shared by both fused cells.

    A cell sets GATES and OP and defines `_recur(proj)`, returning the
    states from the zero state and a closure from the gradients of the
    states after the initial ones to the pre-activation gradients. Here
    the cell draws `w[gate]` (H, E) for every gate, then `u[gate]` (H, H)
    for every gate, then, with a `knowledge_dim`, `know[gate]`, an (H, K)
    projection of a guided vector (K,) into that gate's pre-activation at
    every step. NAMES renames a weight in checkpoints. Projecting gate by
    gate builds `X @ [W_1; ...; W_k]ᵀ` without a stacked weight copy.
    """

    NAMES: dict[str, str] = {}

    def __init__(self, rng: np.random.Generator, input_dim: int, hidden_dim: int,
                 knowledge_dim: int | None = None):
        self.input_dim, self.hidden_dim = input_dim, hidden_dim
        self.w = {g: glorot_uniform(rng, hidden_dim, input_dim) for g in self.GATES}
        self.u = {g: glorot_uniform(rng, hidden_dim, hidden_dim) for g in self.GATES}
        self.know = {} if knowledge_dim is None else {
            g: glorot_uniform(rng, hidden_dim, knowledge_dim) for g in self.GATES}

    def params(self, prefix: str) -> dict[str, Tensor]:
        """The input and recurrence weights gate by gate, then the knowledge
        projections."""
        named = [(f"{kind}_{g}", t[g]) for g in self.GATES
                 for kind, t in (("w", self.w), ("u", self.u))]
        named += [(f"know_{g}", k) for g, k in self.know.items()]
        return {f"{prefix}.{self.NAMES.get(name, name)}": t for name, t in named}

    def sequence(self, x: Tensor, guided: Tensor | None = None) -> Tensor:
        """All hidden states (T, H) of a run from the zero state over x (T, E),
        with `guided` projected into every step if the cell has projections."""
        check_rows(x, self.input_dim, "recurrence input")
        return self._op(x, guided if self.know else None)

    def _op(self, x: Tensor, guided: Tensor | None = None, rows=None,
            sizes: list[int] | None = None, ends=None) -> Tensor:
        """One graph node running the rows `rows` of x (default: all, in
        order), `sizes[t]` of them at step t (GRU only, see `final_states`),
        and giving the states at `ends` (default: all)."""
        hd, weights = self.hidden_dim, [self.w[g] for g in self.GATES]
        xv = x.value if rows is None else x.value[rows]
        know = [self.know[g] for g in self.GATES] if guided is not None else []
        proj = np.empty((xv.shape[0], len(weights) * hd))
        for i, w in enumerate(weights):
            block = np.matmul(xv, w.value.T, out=proj[:, i * hd:(i + 1) * hd])
            if know:
                block += know[i].value @ guided.value
        states, bptt = self._recur(proj) if sizes is None else self._recur(proj, sizes)
        value = states[-xv.shape[0]:]
        result = value if ends is None else value[ends]

        def bw(g):
            if ends is not None:
                g, d_ends = np.zeros_like(value), g
                g[ends] = d_ends
            d_pre = bptt(g)
            where = None if rows is None else np.argsort(rows)    # x's row order
            for i, w in enumerate(weights):
                d_gate = d_pre[:, i * hd:(i + 1) * hd]
                w._accumulate(d_gate.T @ xv)
                d_x = d_gate @ w.value
                x._accumulate(d_x if where is None else d_x[where])
                if know:
                    d_term = d_gate.sum(axis=0)
                    know[i]._accumulate(np.outer(d_term, guided.value))
                    guided._accumulate(know[i].value.T @ d_term)
        # guided after x: the backward pass reaches x's embedding first.
        return Tensor(result, self.OP, (x, *weights, *self.u.values(),
                                        *([guided, *know] if know else [])), bw)


class ElmanCell(_Recurrence):
    """h_t = tanh(W x_t + U h_{t-1} [+ K_cand g]); no bias in the recurrence."""

    GATES = ("cand",)
    OP = "elman_sequence"
    NAMES = {"w_cand": "w_in", "u_cand": "u_rec"}

    def _recur(self, proj: np.ndarray):
        u, n = self.u["cand"].value, proj.shape[0]
        states = np.zeros((n + 1, self.hidden_dim))
        for t in range(n):
            np.tanh(proj[t] + u @ states[t], out=states[t + 1])

        def bptt(g):
            dtanh = 1.0 - states[1:] * states[1:]
            d_pre = np.empty_like(proj)
            dh = np.zeros(self.hidden_dim)
            for t in reversed(range(n)):
                dh = np.multiply(dh + g[t], dtanh[t], out=d_pre[t]) @ u
            self.u["cand"]._accumulate(d_pre.T @ states[:-1])
            return d_pre
        return states, bptt


class GruCell(_Recurrence):
    """Gated recurrent unit: reset and update gates, interpolated state.

        r   = sigmoid(W_r x_t + U_r h_{t-1} [+ K_r g])
        z   = sigmoid(W_z x_t + U_z h_{t-1} [+ K_z g])
        h~  = tanh(W_h x_t + U_h (h_{t-1} * r) [+ K_h g])
        h_t = (1 - z) * h~ + z * h_{t-1}

    The K g terms, in a cell with knowledge projections, project the
    per-utterance guided vector g into each gate's pre-activation.
    sigmoid(a) = 1 / (1 + exp(-a)), computed in place; it saturates to
    exactly 0 (exp overflows) and 1.
    """

    GATES = ("reset", "update", "cand")
    OP = "gru_sequence"

    def final_states(self, x: Tensor, lengths: list[int]) -> Tensor:
        """Final states (n, H) of independent runs from the zero state, run i
        over the next `lengths[i]` rows of x (T, E), as one graph node. The
        runs are packed time-major, longest first, so step t updates only
        the rows of runs longer than t (no masks), and each final state is
        read at its run's own length."""
        runs = check_runs(x, self.input_dim, lengths)
        order = np.argsort(-runs, kind="stable")
        step, rank = np.nonzero(runs[order] > np.arange(runs.max())[:, None])
        # The row of x of each packed row, and the packed row of each run's end.
        rows = (np.cumsum(runs) - runs)[order][rank] + step
        ends = np.argsort(rows)[np.cumsum(runs) - 1]
        return self._op(x, rows=rows, sizes=np.bincount(step).tolist(), ends=ends)

    def _recur(self, proj: np.ndarray, sizes: list[int] | None = None):
        """`sizes[t]` (non-increasing, default 1) rows run at step t, reading
        the first rows of step t - 1's states. With one row per step the
        loops iterate the arrays themselves, with no slicing."""
        hd, n = self.hidden_dim, proj.shape[0]
        b0, rows, prevs = sizes[0] if sizes else 1, None, None
        if b0 > 1:
            starts = [0, *np.cumsum(sizes).tolist()]
            rows = [slice(a, a + b) for a, b in zip(starts, sizes)]
            prevs = [slice(a, a + b) for a, b in zip([0] + [b0 + a for a in starts[:-2]], sizes)]

        def at(steps, *arrays):    # the arrays' rows at each step
            return arrays if b0 == 1 else [[a[i] for i in steps] for a in arrays]

        u_c, neg_u_rz = self.u["cand"].value, np.empty((2 * hd, hd))
        # h [-U_r; -U_z] - p is bitwise -(h [U_r; U_z] + p), the -a that exp(-a) needs.
        np.negative(self.u["reset"].value, out=neg_u_rz[:hd])
        np.negative(self.u["update"].value, out=neg_u_rz[hd:])
        neg_u_rz_t, u_c_t = neg_u_rz.T, u_c.T
        states = np.zeros((b0 + n, hd))
        rz = np.empty((n, 2 * hd))    # reset and update gate values
        cand = np.empty((n, hd))
        keep = np.empty((n, hd))      # (1 - z) * h~, the candidate's share
        with np.errstate(over="ignore"):    # exp(-a) = inf for a < -709
            for h, h_next, gates, r, z, c, k, p_rz, p_c in zip(*at(prevs, states[:-1]), *at(
                    rows, states[b0:], rz, rz[:, :hd], rz[:, hd:], cand, keep,
                    proj[:, :2 * hd], proj[:, 2 * hd:])):
                np.subtract(np.matmul(h, neg_u_rz_t, out=gates), p_rz, out=gates)
                np.divide(1.0, np.add(np.exp(gates, out=gates), 1.0, out=gates), out=gates)
                # h_next holds r * h until the new state overwrites it.
                np.matmul(np.multiply(r, h, out=h_next), u_c_t, out=c)
                np.tanh(np.add(c, p_c, out=c), out=c)
                np.multiply(np.subtract(1.0, z, out=k), c, out=k)
                np.add(np.multiply(z, h, out=h_next), k, out=h_next)

        def bptt(g):
            h_prev = states[:-1] if b0 == 1 else np.vstack(*at(prevs, states[:-1]))
            r, z = rz[:, :hd], rz[:, hd:]
            # Per-step factors that do not depend on the incoming gradient.
            to_cand = (1.0 - z) * (1.0 - cand * cand)
            to_update = (h_prev - cand) * z * (1.0 - z)
            to_reset = h_prev * r * (1.0 - r)
            d_pre = np.empty_like(proj)
            d_states = np.zeros_like(states)
            d_states[b0:] = g
            for d_prev, dh, d_step, z_t, r_t, t_cand, t_update, t_reset in zip(*(
                    a[::-1] for a in (*at(prevs, d_states[:-1]), *at(
                        rows, d_states[b0:], d_pre, z, r, to_cand, to_update, to_reset)))):
                d_reset_h = np.multiply(dh, t_cand, out=d_step[..., 2 * hd:]) @ u_c
                np.multiply(d_reset_h, t_reset, out=d_step[..., :hd])
                np.multiply(dh, t_update, out=d_step[..., hd:2 * hd])
                d_prev += dh * z_t + d_reset_h * r_t - d_step[..., :2 * hd] @ neg_u_rz
            d_u_rz = d_pre[:, :2 * hd].T @ h_prev
            self.u["reset"]._accumulate(d_u_rz[:hd])
            self.u["update"]._accumulate(d_u_rz[hd:])
            self.u["cand"]._accumulate(d_pre[:, 2 * hd:].T @ (r * h_prev))
            return d_pre
        return states, bptt


CELL_CLASSES = {"elman": ElmanCell, "gru": GruCell}
CELL_KINDS = tuple(CELL_CLASSES)


def make_cell(kind: str, rng: np.random.Generator, input_dim: int,
              hidden_dim: int, knowledge_dim: int | None = None):
    if kind not in CELL_CLASSES:
        raise ValueError(f"unknown recurrent cell kind {kind!r}")
    return CELL_CLASSES[kind](rng, input_dim, hidden_dim, knowledge_dim)
