"""Recurrent cells and parameter initialization shared by encoders and taggers.

A cell is its gate list. For every gate it holds an input weight and a
recurrence weight and, in a knowledge-guided tagger tower, a projection
of the guided vector. Every run is one fused graph op from one entry
point, `run`: one sequence, or a ragged batch packed as PyTorch's
`pack_padded_sequence` packs one. The forward pass projects all inputs
before the loop (one matmul per gate, into one preallocated matrix),
adds the knowledge terms to that projection as a constant bias, and
loops over the steps with one recurrent product per gate group, writing
every gate and state into its preallocated rows. The backward pass is a
hand-written backpropagation through time over the stored gate values,
with one matmul or sum per weight and input after the loop. Parameters
stay one matrix per gate, as checkpoints store them; the GRU negates
U_r and U_z into one stacked buffer once per call, for both passes.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import DimensionError


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Uniform(-s, s) with s = sqrt(6 / (fan_in + fan_out))."""
    s = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-s, s, size=(rows, cols)))


def check_runs(x: Tensor, dim: int, lengths: list[int]) -> np.ndarray:
    """The run lengths as an array, if runs of >= 1 rows cover x, a
    non-empty (T, dim) matrix."""
    if x.value.ndim != 2 or x.shape[0] < 1 or x.shape[1] != dim:
        raise DimensionError(f"input must be a non-empty (length, {dim}) matrix, "
                             f"got {x.shape}")
    if sum(lengths) != x.shape[0] or min(lengths) < 1:
        raise DimensionError(f"runs {list(lengths)} must have length >= 1 "
                             f"and cover all {x.shape[0]} rows")
    return np.array(lengths, dtype=int)


def zero_vector(n: int) -> Tensor:
    return Tensor(np.zeros(n))


class _Recurrence:
    """Parameters and the one graph-op builder shared by both fused cells.

    A cell sets GATES and OP and defines `_recur(proj, sizes)`, walking the
    packed rows with `_steps`. It returns the states, zero states first,
    and a closure `bptt(d_states, d_pre)` that fills d_pre with the
    pre-activation gradients of d_states, adding into d_states as it walks
    back. Here the cell draws `w[gate]` (H, E) for every gate, then
    `u[gate]` (H, H) for every gate, then, with a `knowledge_dim`,
    `know[gate]`, an (H, K) projection of a guided vector (K,) into that
    gate's pre-activation at every step. NAMES renames a weight in
    checkpoints. Projecting gate by gate builds `X @ [W_1; ...; W_k]ᵀ`
    without a stacked weight copy.
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

    def run(self, x: Tensor, lengths: list[int] | None = None,
            guided: Tensor | None = None, last: bool = False) -> Tensor:
        """Runs from the zero state as one graph node, run i over the next
        `lengths[i]` rows of x (T, E) (default: one run over all of x), with
        `guided` (K,) projected into every step if the cell has projections.
        Gives every state (T, H) in x's row order or, with `last`, each run's
        final state (runs, H). Several runs are packed time-major, longest
        first, so step t updates only the rows of runs longer than t (no
        masks); one run takes no packing."""
        runs = check_runs(x, self.input_dim, [x.shape[0]] if lengths is None else lengths)
        if len(runs) == 1:
            return self._op(x, guided, None, [1] * x.shape[0], [-1] if last else None)
        order = np.argsort(-runs, kind="stable")
        step, rank = np.nonzero(runs[order] > np.arange(runs.max())[:, None])
        # The row of x of each packed row, and the packed row of each row of x.
        rows = (np.cumsum(runs) - runs)[order][rank] + step
        where = np.argsort(rows)
        return self._op(x, guided, rows, np.bincount(step).tolist(),
                        where[np.cumsum(runs) - 1] if last else where)

    def _op(self, x: Tensor, guided: Tensor | None, rows, sizes: list[int],
            ends) -> Tensor:
        """One graph node running the rows `rows` of x (None: all, in order),
        `sizes[t]` of them at step t, and giving the states at `ends` (None:
        all)."""
        hd, weights = self.hidden_dim, [self.w[g] for g in self.GATES]
        xv = x.value if rows is None else x.value[rows]
        know = list(self.know.values()) if guided is not None else []
        proj = np.empty((xv.shape[0], len(weights) * hd))
        for i, w in enumerate(weights):
            block = np.matmul(xv, w.value.T, out=proj[:, i * hd:(i + 1) * hd])
            if know:
                block += know[i].value @ guided.value
        states, bptt = self._recur(proj, sizes)
        value = states[-xv.shape[0]:]
        result = value if ends is None else value[ends]

        def bw(g):
            d_states, d_pre = np.zeros_like(states), np.empty_like(proj)
            d_states[-xv.shape[0]:][... if ends is None else ends] = g
            bptt(d_states, d_pre)
            for i, w in enumerate(weights):
                d_gate = d_pre[:, i * hd:(i + 1) * hd]
                w._accumulate(d_gate.T @ xv)
                x._accumulate(d_gate @ w.value, rows)    # back to x's row order
                if know:
                    d_term = d_gate.sum(axis=0)
                    know[i]._accumulate(np.outer(d_term, guided.value))
                    guided._accumulate(know[i].value.T @ d_term)
        # guided after x: the backward pass reaches x's embedding first.
        return Tensor(result, self.OP, (x, *weights, *self.u.values(),
                                        *([guided, *know] if know else [])), bw)

    @staticmethod
    def _steps(sizes: list[int]):
        """The number b0 of runs, and how a loop walks `sizes[t]` packed rows
        at step t: `at(*arrays)` gives each array's rows at each step, and
        `before(*arrays)`, of arrays laid out as the states (b0 zero states
        first), the rows each step follows. One run walks the arrays whole."""
        b0 = sizes[0]
        if b0 == 1:
            return 1, (lambda *arrays: arrays), (lambda *arrays: arrays)
        starts = np.cumsum([0, *sizes[:-1]]).tolist()

        def views(starts):
            steps = [slice(a, a + b) for a, b in zip(starts, sizes)]
            return lambda *arrays: [[a[s] for s in steps] for a in arrays]
        return b0, views(starts), views([0, *(b0 + a for a in starts[:-1])])


class ElmanCell(_Recurrence):
    """h_t = tanh(W x_t + U h_{t-1} [+ K_cand g]); no bias in the recurrence."""

    GATES = ("cand",)
    OP = "elman_sequence"
    NAMES = {"w_cand": "w_in", "u_cand": "u_rec"}

    def _recur(self, proj: np.ndarray, sizes: list[int]):
        u = self.u["cand"].value
        u_t = u.T    # one transposed view, not one per step
        b0, at, before = self._steps(sizes)
        states = np.zeros((b0 + proj.shape[0], self.hidden_dim))
        for h, h_next, p in zip(*before(states[:-1]), *at(states[b0:], proj)):
            np.tanh(p + h @ u_t, out=h_next)

        def bptt(d_states, d_pre):
            dtanh = 1.0 - states[b0:] * states[b0:]
            for d_prev, dh, d_step, t_tanh in zip(*(a[::-1] for a in (
                    *before(d_states[:-1]), *at(d_states[b0:], d_pre, dtanh)))):
                d_prev += np.multiply(dh, t_tanh, out=d_step) @ u
            h_prev = states[:-1] if b0 == 1 else np.vstack(*before(states[:-1]))
            self.u["cand"]._accumulate(d_pre.T @ h_prev)
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

    def _recur(self, proj: np.ndarray, sizes: list[int]):
        hd, n = self.hidden_dim, proj.shape[0]
        b0, at, before = self._steps(sizes)
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
            for h, h_next, gates, r, z, c, k, p_rz, p_c in zip(*before(states[:-1]), *at(
                    states[b0:], rz, rz[:, :hd], rz[:, hd:], cand, keep,
                    proj[:, :2 * hd], proj[:, 2 * hd:])):
                np.subtract(np.matmul(h, neg_u_rz_t, out=gates), p_rz, out=gates)
                np.divide(1.0, np.add(np.exp(gates, out=gates), 1.0, out=gates), out=gates)
                # h_next holds r * h until the new state overwrites it.
                np.matmul(np.multiply(r, h, out=h_next), u_c_t, out=c)
                np.tanh(np.add(c, p_c, out=c), out=c)
                np.multiply(np.subtract(1.0, z, out=k), c, out=k)
                np.add(np.multiply(z, h, out=h_next), k, out=h_next)

        def bptt(d_states, d_pre):
            h_prev = states[:-1] if b0 == 1 else np.vstack(*before(states[:-1]))
            r, z = rz[:, :hd], rz[:, hd:]
            # Per-step factors that do not depend on the incoming gradient.
            to_cand = (1.0 - z) * (1.0 - cand * cand)
            to_update = (h_prev - cand) * z * (1.0 - z)
            to_reset = h_prev * r * (1.0 - r)
            for d_prev, dh, d_step, z_t, r_t, t_cand, t_update, t_reset in zip(*(
                    a[::-1] for a in (*before(d_states[:-1]), *at(
                        d_states[b0:], d_pre, z, r, to_cand, to_update, to_reset)))):
                d_reset_h = np.multiply(dh, t_cand, out=d_step[..., 2 * hd:]) @ u_c
                np.multiply(d_reset_h, t_reset, out=d_step[..., :hd])
                np.multiply(dh, t_update, out=d_step[..., hd:2 * hd])
                d_prev += dh * z_t + d_reset_h * r_t - d_step[..., :2 * hd] @ neg_u_rz
            d_u_rz = d_pre[:, :2 * hd].T @ h_prev
            self.u["reset"]._accumulate(d_u_rz[:hd])
            self.u["update"]._accumulate(d_u_rz[hd:])
            self.u["cand"]._accumulate(d_pre[:, 2 * hd:].T @ (r * h_prev))
        return states, bptt


CELL_CLASSES = {"elman": ElmanCell, "gru": GruCell}
CELL_KINDS = tuple(CELL_CLASSES)


def make_cell(kind: str, rng: np.random.Generator, input_dim: int,
              hidden_dim: int, knowledge_dim: int | None = None):
    if kind not in CELL_CLASSES:
        raise ValueError(f"unknown recurrent cell kind {kind!r}")
    return CELL_CLASSES[kind](rng, input_dim, hidden_dim, knowledge_dim)
