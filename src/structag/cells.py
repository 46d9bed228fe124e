"""Recurrent cells and parameter initialization shared by encoders and taggers.

A cell is its gate list. For every gate it holds an input weight and a
recurrence weight and, in a knowledge-guided tagger tower, a projection
of the guided vector. Every run is one fused graph op over L cells of one
kind, its lanes: `run` is the one-lane entry (one sequence, or a ragged
batch packed as PyTorch's `pack_padded_sequence` packs one), `run_lanes`
runs the joint tagger's towers over one sequence. The forward pass
projects all inputs, lane after lane, into one time-major matrix per
gate group (GRU [reset|update] and [cand], Elman [cand]), adds the
knowledge terms as a constant bias, and loops over the steps with one
recurrent product per group, stacked over the lanes; several GRU lanes
keep their gate values gate-major, so each step reads contiguous blocks.
The backward pass is hand-written backpropagation through time, with one
matmul or sum per lane and weight and input after the loop. Parameters
stay one matrix per gate, as checkpoints store them.
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


def _lanes(cells: list, *arrays: np.ndarray):
    """Each cell with its lane's columns of the arrays (rows, L·k), copied
    contiguous: BLAS multiplies them as one lane's own arrays, bit for bit."""
    if len(cells) == 1:
        return [(cells[0], *arrays)]
    lanes = (a.reshape(len(a), len(cells), -1).swapaxes(0, 1) for a in arrays)
    return zip(cells, *map(np.ascontiguousarray, lanes))


class _Recurrence:
    """Parameters and the one graph-op builder shared by both fused cells.

    A cell sets GATES, their GROUPS and OP and defines `_recur(cells, proj,
    sizes)`, walking the packed rows of its lanes with `_steps`. It returns
    the states, zero states first, and a closure `bptt(d_states, d_pre)`
    that fills d_pre, laid out as proj, with the pre-activation gradients
    of d_states, adding into d_states as it walks back, and gives per group
    the rows its recurrence weights multiplied. Here the cell draws
    `w[gate]` (H, E) for every gate, then `u[gate]` (H, H) for every gate,
    then, with a `knowledge_dim`, `know[gate]`, an (H, K) projection of a
    guided vector (K,) into that gate's pre-activation at every step. NAMES
    renames a weight in checkpoints. Projecting gate by gate builds
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
        hd, lanes, xv = cells[0].hidden_dim, len(cells), x.value if rows is None else x.value[rows]
        n = len(xv)
        proj = [np.empty((n, lanes * len(group) * hd)) for group in cls.GROUPS]
        for l, c in enumerate(cells):
            for p, group in zip(proj, cls.GROUPS):    # time-major, lane after lane in a row
                for i, gate in enumerate(group, l * len(group)):
                    block = np.matmul(xv, c.w[gate].value.T, out=p[:, i * hd:(i + 1) * hd])
                    if guided is not None and c.know:
                        block += c.know[gate].value @ guided.value
        states, bptt = cls._recur(cells, proj, sizes)
        view = ((lambda a: a[None, -n:]) if lanes == 1    # a's states as (L, rows, H)
                else lambda a: a[-n:].reshape(n, lanes, hd).swapaxes(0, 1))

        def bw(g):
            d_states, d_pre = np.zeros_like(states), [np.empty_like(p) for p in proj]
            view(d_states)[key] = g
            h_in = bptt(d_states, d_pre)
            for c, *lane in _lanes(cells, *d_pre, *h_in):    # x: lane 0 first, in its row order
                for d, h, group in zip(lane, lane[len(h_in):], cls.GROUPS):
                    d_u = d.T @ h    # the group's [U_1; ...; U_k] in one product
                    for i, gate in enumerate(group):
                        d_gate = d[:, i * hd:(i + 1) * hd]
                        c.u[gate]._accumulate(d_u[i * hd:(i + 1) * hd])
                        c.w[gate]._accumulate(d_gate.T @ xv)
                        x._accumulate(d_gate @ c.w[gate].value, rows)
                        if guided is not None and c.know:
                            d_term = d_gate.sum(axis=0)
                            c.know[gate]._accumulate(np.outer(d_term, guided.value))
                            guided._accumulate(c.know[gate].value.T @ d_term)
        # guided after x: the backward pass reaches x's embedding first.
        params = [t for c in cells for t in (*c.w.values(), *c.u.values())]
        knows = [k for c in cells for k in c.know.values()] if guided is not None else []
        return Tensor(view(states)[key], cls.OP,
                      (x, *params, *([guided, *knows] if knows else [])), bw)

    @staticmethod
    def _steps(sizes: list[int], lanes: int):
        """The number b0 of runs, and how a loop walks `sizes[t]` packed rows
        at step t: `at(*arrays)` gives each array's rows at each step, and
        `before(*arrays)`, of arrays laid out as the states (b0 zero states
        first), the rows each step follows, and `mm` multiplies them. One run
        walks them whole, and L lanes walk arrays (rows, L·k) in (L, 1, k)
        blocks; np.dot is one lane's np.matmul, bit for bit, at less cost."""
        b0, mm = sizes[0], np.dot if lanes == 1 else np.matmul
        if b0 == 1:
            whole = (lambda *a: a) if lanes == 1 else (
                lambda *a: [v.reshape(len(v), lanes, 1, -1) for v in a])
            return 1, whole, whole, mm
        starts = np.cumsum([0, *sizes[:-1]]).tolist()

        def views(starts):
            steps = [slice(a, a + b) for a, b in zip(starts, sizes)]
            return lambda *arrays: [[a[s] for s in steps] for a in arrays]
        return b0, views(starts), views([0, *(b0 + a for a in starts[:-1])]), mm


class ElmanCell(_Recurrence):
    """h_t = tanh(W x_t + U h_{t-1} [+ K_cand g]); no bias in the recurrence."""

    GATES = ("cand",)
    GROUPS = (GATES,)
    OP = "elman_sequence"
    NAMES = {"w_cand": "w_in", "u_cand": "u_rec"}

    @classmethod
    def _recur(cls, cells: list, proj: list[np.ndarray], sizes: list[int]):
        (p_all,), lanes = proj, len(cells)
        u = np.array([c.u["cand"].value for c in cells]) if lanes > 1 else cells[0].u["cand"].value
        u_t, (b0, at, before, mm) = u.swapaxes(-1, -2), cls._steps(sizes, lanes)
        states = np.zeros((b0 + len(p_all), p_all.shape[1]))
        for h, h_next, p in zip(*before(states[:-1]), *at(states[b0:], p_all)):
            # h U^T + p is bitwise p + h U^T: IEEE addition commutes.
            np.tanh(np.add(mm(h, u_t, out=h_next), p, out=h_next), out=h_next)

        def bptt(d_states, d_pre):
            dtanh = 1.0 - states[b0:] * states[b0:]
            for d_prev, dh, d_step, t_tanh in zip(*(a[::-1] for a in (
                    *before(d_states[:-1]), *at(d_states[b0:], d_pre[0], dtanh)))):
                d_prev += mm(np.multiply(dh, t_tanh, out=d_step), u)
            return [states[:-1] if b0 == 1 else np.vstack(*before(states[:-1]))]
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
    GROUPS = (GATES[:2], GATES[2:])
    OP = "gru_sequence"

    @classmethod
    def _recur(cls, cells: list, proj: list[np.ndarray], sizes: list[int]):
        (p_rz, p_c), hd, lanes = proj, cells[0].hidden_dim, len(cells)
        n, (b0, at, before, mm) = len(p_c), cls._steps(sizes, lanes)
        u_c = cells[0].u["cand"].value if lanes == 1 else np.array(
            [c.u["cand"].value for c in cells])
        # h [-U_r; -U_z] - p is bitwise -(h [U_r; U_z] + p), the -a that exp(-a) needs.
        neg_u_rz = np.empty((2 * hd, hd) if lanes == 1 else (lanes, 2 * hd, hd))
        for buf, c in zip(neg_u_rz.reshape(lanes, 2 * hd, hd), cells):
            np.negative(c.u["reset"].value, out=buf[:hd])
            np.negative(c.u["update"].value, out=buf[hd:])
        neg_u_rz_t, u_c_t = neg_u_rz.swapaxes(-1, -2), u_c.swapaxes(-1, -2)
        states = np.zeros((b0 + n, lanes * hd))
        rz = np.empty((n, 2 * lanes * hd))    # every lane's reset gate values, then update's
        r, z, cand = rz[:, :lanes * hd], rz[:, lanes * hd:], np.empty((n, lanes * hd))
        keep = np.empty((n, lanes * hd))    # (1 - z) * h~, the candidate's share
        # One lane's sigmoid runs in rz; several lanes' divide writes rz gate-major.
        gates = rz if lanes == 1 else np.empty_like(p_rz)
        to_rz = [None] * n if lanes == 1 else zip(gates.reshape(n, lanes, 2, hd),
                                                  rz.reshape(n, 2, lanes, hd).swapaxes(1, 2))
        with np.errstate(over="ignore"):    # exp(-a) = inf for a < -709
            for h, h_next, a, r_t, z_t, c, k, p_rz_t, p_c_t, to in zip(
                    *before(states[:-1]), *at(states[b0:], gates, r, z, cand, keep, p_rz, p_c),
                    to_rz):
                np.subtract(mm(h, neg_u_rz_t, out=a), p_rz_t, out=a)
                np.add(np.exp(a, out=a), 1.0, out=a)
                np.divide(1.0, a, out=a) if to is None else np.divide(1.0, to[0], out=to[1])
                # h_next holds r * h until the new state overwrites it.
                mm(np.multiply(r_t, h, out=h_next), u_c_t, out=c)
                np.tanh(np.add(c, p_c_t, out=c), out=c)
                np.multiply(np.subtract(1.0, z_t, out=k), c, out=k)
                np.add(np.multiply(z_t, h, out=h_next), k, out=h_next)

        def bptt(d_states, d_pre):
            h_prev = states[:-1] if b0 == 1 else np.vstack(*before(states[:-1]))
            # Per-step factors that do not depend on the incoming gradient.
            to_cand = (1.0 - z) * (1.0 - cand * cand)
            to_update = (h_prev - cand) * z * (1.0 - z)
            to_reset = h_prev * r * (1.0 - r)
            for d_prev, dh, d_rz, d_c, z_t, r_t, t_cand, t_update, t_reset in zip(*(
                    a[::-1] for a in (*before(d_states[:-1]), *at(
                        d_states[b0:], *d_pre, z, r, to_cand, to_update, to_reset)))):
                d_reset_h = mm(np.multiply(dh, t_cand, out=d_c), u_c)
                np.multiply(d_reset_h, t_reset, out=d_rz[..., :hd])
                np.multiply(dh, t_update, out=d_rz[..., hd:])
                d_prev += dh * z_t + d_reset_h * r_t - mm(d_rz, neg_u_rz)
            return [h_prev, r * h_prev]
        return states, bptt


CELL_CLASSES = {"elman": ElmanCell, "gru": GruCell}
CELL_KINDS = tuple(CELL_CLASSES)


def make_cell(kind: str, rng: np.random.Generator, input_dim: int,
              hidden_dim: int, knowledge_dim: int | None = None):
    if kind not in CELL_CLASSES:
        raise ValueError(f"unknown recurrent cell kind {kind!r}")
    return CELL_CLASSES[kind](rng, input_dim, hidden_dim, knowledge_dim)
