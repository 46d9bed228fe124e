"""Recurrent cells and parameter initialization shared by encoders and taggers.

A cell is its gate list. For every gate it holds an input weight and a
recurrence weight and, in a knowledge-guided tagger tower, a projection
of the guided vector. Every run is one fused graph op over L cells of one
kind, its lanes: `run` is the one-lane entry (one sequence, or a ragged
batch packed as PyTorch's `pack_padded_sequence` packs one), `run_lanes`
runs the joint tagger's towers over one sequence. The forward pass
projects all inputs before the loop (one matmul per lane and gate, into
one preallocated matrix), adds the knowledge terms to that projection as
a constant bias, and loops over the steps with one recurrent product per
gate group, stacked over the lanes. The backward pass is a hand-written
backpropagation through time over the stored gate values, with one matmul
or sum per lane and weight and input after the loop. Parameters stay one
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


def run_lanes(cells: list, x: Tensor, guided: Tensor | None = None) -> Tensor:
    """Cells of one kind and size over the same x (T, E) as one graph node:
    the states (L, T, H), lane l bit for bit `cells[l].run(x, guided=guided)`."""
    check_runs(x, cells[0].input_dim, [x.shape[0]])
    return cells[0]._op(cells, x, guided, None, [1] * x.shape[0], ...)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """One lane's matrix as it is; several on a leading lane axis."""
    return arrays[0] if len(arrays) == 1 else np.array(arrays)


def _by_lane(a: np.ndarray) -> list[np.ndarray]:
    """The rows of each lane of a time-major (rows, [L,] ·) array."""
    return [a] if a.ndim == 2 else a.swapaxes(0, 1)


class _Recurrence:
    """Parameters and the one graph-op builder shared by both fused cells.

    A cell sets GATES and OP and defines `_recur(cells, proj, sizes)`,
    walking the packed rows of its lanes with `_steps`. It returns the
    states, zero states first, and a closure `bptt(d_states, d_pre)` that
    fills d_pre with the pre-activation gradients of d_states, adding into
    d_states as it walks back. Here the cell draws `w[gate]` (H, E) for
    every gate, then `u[gate]` (H, H) for every gate, then, with a
    `knowledge_dim`, `know[gate]`, an (H, K) projection of a guided vector
    (K,) into that gate's pre-activation at every step. NAMES renames a
    weight in checkpoints. Projecting gate by gate builds
    `X @ [W_1; ...; W_k]ᵀ` without a stacked weight copy.
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
        final state (runs, H). The runs are packed time-major, longest
        first, so step t updates only the rows of runs longer than t (no
        masks)."""
        runs = check_runs(x, self.input_dim, [x.shape[0]] if lengths is None else lengths)
        order = np.argsort(-runs, kind="stable")
        step, rank = np.nonzero(runs[order] > np.arange(runs.max())[:, None])
        # The row of x of each packed row, and the packed row of each row of x.
        rows = (np.cumsum(runs) - runs)[order][rank] + step
        where = np.argsort(rows)
        return self._op([self], x, guided, rows, np.bincount(step).tolist(),
                        (0, where[np.cumsum(runs) - 1] if last else where))

    @classmethod
    def _op(cls, cells: list, x: Tensor, guided: Tensor | None, rows,
            sizes: list[int], key) -> Tensor:
        """One graph node running cells[l] in lane l over the rows `rows` of
        x (None: all, in order), `sizes[t]` of them at step t, and giving
        `states[key]` of the states (L, rows, H) in packed row order."""
        hd, xv = cells[0].hidden_dim, x.value if rows is None else x.value[rows]
        weights = [list(c.w.values()) for c in cells]
        know = [list(c.know.values()) if guided is not None else [] for c in cells]
        n, lanes = len(xv), (len(cells),) if len(cells) > 1 else ()    # 2-D for one lane
        proj = np.empty((n, *lanes, len(cls.GATES) * hd))    # time-major
        for lane, ws, ks in zip(_by_lane(proj), weights, know):
            for i, w in enumerate(ws):
                block = np.matmul(xv, w.value.T, out=lane[:, i * hd:(i + 1) * hd])
                if ks:
                    block += ks[i].value @ guided.value
        states, bptt = cls._recur(cells, proj, sizes)
        result = states[-n:].reshape(n, len(cells), hd).swapaxes(0, 1)[key]

        def bw(g):
            d_states, d_pre = np.zeros_like(states), np.empty_like(proj)
            d_states[-n:].reshape(n, len(cells), hd).swapaxes(0, 1)[key] = g
            bptt(d_states, d_pre)
            for lane, ws, ks in zip(_by_lane(d_pre), weights, know):
                for i, w in enumerate(ws):
                    d_gate = lane[:, i * hd:(i + 1) * hd]
                    w._accumulate(d_gate.T @ xv)
                    x._accumulate(d_gate @ w.value, rows)    # lane 0 first, in x's row order
                    if ks:
                        d_term = d_gate.sum(axis=0)
                        ks[i]._accumulate(np.outer(d_term, guided.value))
                        guided._accumulate(ks[i].value.T @ d_term)
        # guided after x: the backward pass reaches x's embedding first.
        params = [t for c, ws in zip(cells, weights) for t in (*ws, *c.u.values())]
        knows = [k for ks in know for k in ks]
        return Tensor(result, cls.OP, (x, *params, *([guided, *knows] if knows else [])), bw)

    @staticmethod
    def _steps(sizes: list[int], lanes: int):
        """The number b0 of runs, and how a loop walks `sizes[t]` packed rows
        at step t: `at(*arrays)` gives each array's rows at each step, and
        `before(*arrays)`, of arrays laid out as the states (b0 zero states
        first), the rows each step follows. One run walks them whole, and L
        lanes as (L, 1, ·) stacks."""
        b0 = sizes[0]
        if b0 == 1:
            whole = (lambda *a: a) if lanes == 1 else (lambda *a: [v[:, :, None] for v in a])
            return 1, whole, whole
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

    @classmethod
    def _recur(cls, cells: list, proj: np.ndarray, sizes: list[int]):
        u = _stack([c.u["cand"].value for c in cells])
        u_t = u.swapaxes(-1, -2)    # one transposed view, not one per step
        b0, at, before = cls._steps(sizes, len(cells))
        states = np.zeros((b0 + proj.shape[0], *proj.shape[1:-1], cells[0].hidden_dim))
        for h, h_next, p in zip(*before(states[:-1]), *at(states[b0:], proj)):
            np.tanh(p + h @ u_t, out=h_next)

        def bptt(d_states, d_pre):
            dtanh = 1.0 - states[b0:] * states[b0:]
            for d_prev, dh, d_step, t_tanh in zip(*(a[::-1] for a in (
                    *before(d_states[:-1]), *at(d_states[b0:], d_pre, dtanh)))):
                d_prev += np.multiply(dh, t_tanh, out=d_step) @ u
            h_prev = states[:-1] if b0 == 1 else np.vstack(*before(states[:-1]))
            for d, h, c in zip(_by_lane(d_pre), _by_lane(h_prev), cells):
                c.u["cand"]._accumulate(d.T @ h)
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

    @classmethod
    def _recur(cls, cells: list, proj: np.ndarray, sizes: list[int]):
        hd, n, lanes = cells[0].hidden_dim, proj.shape[0], proj.shape[1:-1]
        b0, at, before = cls._steps(sizes, len(cells))
        u_c = _stack([c.u["cand"].value for c in cells])
        # h [-U_r; -U_z] - p is bitwise -(h [U_r; U_z] + p), the -a that exp(-a) needs.
        neg_u_rz = np.empty((*lanes, 2 * hd, hd))
        for buf, c in zip(neg_u_rz.reshape(-1, 2 * hd, hd), cells):
            np.negative(c.u["reset"].value, out=buf[:hd])
            np.negative(c.u["update"].value, out=buf[hd:])
        neg_u_rz_t, u_c_t = neg_u_rz.swapaxes(-1, -2), u_c.swapaxes(-1, -2)
        states = np.zeros((b0 + n, *lanes, hd))
        rz = np.empty((n, *lanes, 2 * hd))    # reset and update gate values
        cand = np.empty((n, *lanes, hd))
        keep = np.empty((n, *lanes, hd))      # (1 - z) * h~, the candidate's share
        with np.errstate(over="ignore"):    # exp(-a) = inf for a < -709
            for h, h_next, gates, r, z, c, k, p_rz, p_c in zip(*before(states[:-1]), *at(
                    states[b0:], rz, rz[..., :hd], rz[..., hd:], cand, keep,
                    proj[..., :2 * hd], proj[..., 2 * hd:])):
                np.subtract(np.matmul(h, neg_u_rz_t, out=gates), p_rz, out=gates)
                np.divide(1.0, np.add(np.exp(gates, out=gates), 1.0, out=gates), out=gates)
                # h_next holds r * h until the new state overwrites it.
                np.matmul(np.multiply(r, h, out=h_next), u_c_t, out=c)
                np.tanh(np.add(c, p_c, out=c), out=c)
                np.multiply(np.subtract(1.0, z, out=k), c, out=k)
                np.add(np.multiply(z, h, out=h_next), k, out=h_next)

        def bptt(d_states, d_pre):
            h_prev = states[:-1] if b0 == 1 else np.vstack(*before(states[:-1]))
            r, z = rz[..., :hd], rz[..., hd:]
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
            for d, h, r_h, c in zip(*map(_by_lane, (d_pre, h_prev, r * h_prev)), cells):
                d_u_rz = d[:, :2 * hd].T @ h
                c.u["reset"]._accumulate(d_u_rz[:hd])
                c.u["update"]._accumulate(d_u_rz[hd:])
                c.u["cand"]._accumulate(d[:, 2 * hd:].T @ r_h)
        return states, bptt


CELL_CLASSES = {"elman": ElmanCell, "gru": GruCell}
CELL_KINDS = tuple(CELL_CLASSES)


def make_cell(kind: str, rng: np.random.Generator, input_dim: int,
              hidden_dim: int, knowledge_dim: int | None = None):
    if kind not in CELL_CLASSES:
        raise ValueError(f"unknown recurrent cell kind {kind!r}")
    return CELL_CLASSES[kind](rng, input_dim, hidden_dim, knowledge_dim)
