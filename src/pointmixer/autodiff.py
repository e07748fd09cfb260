"""Tape-based reverse-mode differentiation over dense numpy arrays.

Tensors are immutable between operations: every op allocates a fresh node
that remembers its parents and a backward closure. Calling ``backward()`` on
a scalar walks the tape in reverse topological order and accumulates
gradients into every leaf with ``requires_grad`` set. The walk releases the
tape behind it: once an interior node's backward has run, the node drops its
closure (and with it every array the closure saved), its parents and its
``.grad``. So backward keeps no interior gradients, only one graph is alive
at a time in a training loop, and a second backward through a released
graph raises ``RuntimeError``.

Float64 is the default dtype (correctness runs); float32 inputs are carried
through unchanged for benchmark runs.

``edge_scores`` spreads its edge blocks over a private pool of worker
threads, one per CPU in the process's affinity set, each pinned to its own
CPU; the pool starts on the first call with two or more blocks. With one
allowed CPU, or where the platform cannot pin threads, every block runs in
the calling thread. ``taskset`` is the control: ``taskset -c 0 ...`` keeps
the kernel on one CPU. Workers run numpy on disjoint slices only; every sum
across blocks is added by the caller in block order, so results are
bit-identical whatever the number of CPUs.
"""

from __future__ import annotations

import contextlib
import math
import os
import queue
import threading
import weakref

import numpy as np
from scipy import sparse
from scipy.special import erf

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "set_check_finite",
    "concat_last",
    "slice_last",
    "gather_rows",
    "scatter_add",
    "segment_sum",
    "csr_weighted_sum",
    "edge_scores",
    "segment_softmax",
    "segment_max",
    "inject_backward_fault",
    "max_axis1",
    "reduce_sum",
    "reduce_mean",
    "matmul",
    "linear",
    "enable_alloc_tracking",
    "transpose_last2",
    "reshape",
    "gelu",
    "layernorm",
    "reset_peak_bytes",
    "peak_bytes",
    "live_bytes",
]

# Python floats, not NumPy float64 scalars, so float32 inputs stay float32
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Floats in one block buffer of ``edge_scores`` (rows = this / layer width):
# 512 KiB in float64, 2048 rows at width 32, well inside a core's L2.
_EDGE_BLOCK_FLOATS = 1 << 16

_grad_enabled = True
_check_finite = False
_fault_ops: set[str] = set()


def inject_backward_fault(op_name: str | None):
    """Test hook: flip the sign of the named op's backward pass.

    Used to prove the gradient checker catches a broken backward; ``None``
    clears the fault.
    """
    _fault_ops.clear()
    if op_name is not None:
        _fault_ops.add(op_name)


class _AllocTracker:
    """High-water mark of live tensor bytes, for the benchmark harness."""

    def __init__(self):
        self.current = 0
        self.peak = 0
        self.enabled = False

    def add(self, n):
        self.current += n
        if self.current > self.peak:
            self.peak = self.current

    def sub(self, n):
        self.current -= n


_alloc = _AllocTracker()


def enable_alloc_tracking(flag: bool):
    """Toggle per-tensor byte accounting (off by default; costs a weakref
    per tensor, so only the benchmark harness switches it on)."""
    _alloc.enabled = flag
    _alloc.current = 0
    _alloc.peak = 0


def reset_peak_bytes():
    _alloc.peak = _alloc.current


def peak_bytes() -> int:
    return _alloc.peak


def live_bytes() -> int:
    return _alloc.current


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (evaluation passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def set_check_finite(flag: bool):
    """When on, every op output is asserted finite (slow; used by tests)."""
    global _check_finite
    _check_finite = flag


class Tensor:
    """A dense array plus the tape bookkeeping needed for backward."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "__weakref__")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float64, np.float32):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._op = ""
        if _alloc.enabled:
            _alloc.add(arr.nbytes)
            weakref.finalize(self, _alloc.sub, arr.nbytes)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            # copy: g may alias a child's grad buffer or a broadcast view
            self.grad = np.array(g, dtype=self.data.dtype)
            if self.grad.shape != self.data.shape:
                self.grad = np.broadcast_to(self.grad, self.data.shape).copy()
        else:
            self.grad += g

    def backward(self, seed=None):
        """Backpropagate from this node; ``seed`` defaults to 1 for scalars.

        Leaves keep their gradients; every interior node is released as the
        walk passes it (see the module docstring). Raises RuntimeError,
        before any gradient moves, when the graph was released already."""
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed requires a scalar output")
            seed = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is None and node._op:
                raise RuntimeError(f"backward through a released graph: {node._op!r} was released by an earlier backward()")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and (p._backward is not None or p.requires_grad):
                    stack.append((p, False))
        self._accumulate(np.asarray(seed, dtype=self.data.dtype))
        while topo:  # popping lets each node die once its children are done
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(-node.grad if node._op in _fault_ops else node.grad)
            node._backward, node._parents, node.grad = None, (), None

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _records_tape(parents) -> bool:
    """Whether an op over ``parents`` goes on the tape (and so needs to keep
    what its backward reads)."""
    return _grad_enabled and any(p.requires_grad or p._backward is not None for p in parents)


def _make(data, parents, backward, op: str = "") -> Tensor:
    """Build an op output; drops the tape when grad is globally disabled."""
    if _check_finite and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by {op or 'an operation'}")
    out = Tensor(data)
    if _records_tape(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
        out._op = op
    return out


def _unbroadcast(grad, shape):
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- arithmetic -----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), bwd, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(-_unbroadcast(g, b.data.shape))

    return _make(a.data - b.data, (a, b), bwd, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), bwd, "mul")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bwd(g):
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    return _make(a.data @ b.data, (a, b), bwd, "matmul")


def linear(x, W, b=None) -> Tensor:
    """Fused y = x W^T + b over the last axis; W is (out, in), ``b=None``
    means no bias."""
    x, W = as_tensor(x), as_tensor(W)
    if x.data.shape[-1] != W.data.shape[-1]:
        raise ValueError(f"linear: input width {x.data.shape[-1]} != fan-in {W.data.shape[-1]}")
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out = x2 @ W.data.T
    parents = (x, W)
    if b is not None:
        b = as_tensor(b)
        out += b.data
        parents = (x, W, b)

    def bwd(g):
        g2 = g.reshape(-1, W.data.shape[0])
        if x.requires_grad:  # a constant input (positions, raw features) needs no gradient
            x._accumulate((g2 @ W.data).reshape(x.data.shape))
        W._accumulate(g2.T @ x2)
        if b is not None:
            b._accumulate(g2.sum(axis=0))

    return _make(out.reshape(lead + (W.data.shape[0],)), parents, bwd, "linear")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape

    def bwd(g):
        a._accumulate(g.reshape(old))

    return _make(a.data.reshape(shape), (a,), bwd, "reshape")


def transpose_last2(a) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        a._accumulate(np.swapaxes(g, -1, -2))

    return _make(np.swapaxes(a.data, -1, -2), (a,), bwd, "transpose")


def concat_last(parts) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    widths = [p.data.shape[-1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def bwd(g):
        for p, piece in zip(parts, np.split(g, splits, axis=-1)):
            p._accumulate(piece)

    return _make(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), bwd, "concat")


def slice_last(a, start: int, stop: int) -> Tensor:
    """Entries ``start:stop`` of the last axis, e.g. a column block of a
    weight matrix; the gradient lands in those columns only."""
    a = as_tensor(a)

    def bwd(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        a._accumulate(full)

    return _make(np.ascontiguousarray(a.data[..., start:stop]), (a,), bwd, "slice")


# -- reductions -----------------------------------------------------------


def reduce_sum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape

    def bwd(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, shape).copy())
        else:
            a._accumulate(np.broadcast_to(np.expand_dims(g, axis), shape).copy())

    return _make(a.data.sum(axis=axis), (a,), bwd, "reduce_sum")


def reduce_mean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape
    n = a.data.size if axis is None else shape[axis]

    def bwd(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g / n, shape).copy())
        else:
            a._accumulate(np.broadcast_to(np.expand_dims(g, axis) / n, shape).copy())

    return _make(a.data.mean(axis=axis), (a,), bwd, "reduce_mean")


def max_axis1(a) -> Tensor:
    """Max over axis 1 of an (n, k, c) tensor: ``segment_max`` over the
    stride-k segments of its (n * k, c) rows."""
    a = as_tensor(a)
    n, k, c = a.data.shape
    return segment_max(reshape(a, (n * k, c)), np.arange(n + 1) * k)


# -- indexing -------------------------------------------------------------


def _check_offsets(off: np.ndarray, rows: int):
    if off.ndim != 1 or len(off) == 0 or off[0] != 0 or off[-1] != rows or np.any(np.diff(off) < 0):
        raise ValueError("malformed CSR offsets")


def _segment_ids(off: np.ndarray) -> np.ndarray:
    """The segment index of each row of CSR ``offsets``."""
    return np.repeat(np.arange(len(off) - 1), np.diff(off))


def _accumulate_gathered(x: Tensor, idx: np.ndarray, g: np.ndarray):
    """Add the gradient ``g`` of ``x[idx]`` into ``x.grad``: rows sharing an
    index are summed by one sparse transpose product."""
    n = idx.size
    sel = sparse.csr_array((np.ones(n, dtype=g.dtype), idx.ravel(), np.arange(n + 1)), shape=(n, x.data.shape[0]))
    gx = (sel.T @ g.reshape(n, int(np.prod(x.data.shape[1:])))).reshape(x.data.shape)
    if x.grad is None:
        x.grad = gx.astype(x.data.dtype, copy=False)
    else:
        x.grad += gx


def gather_rows(x, indices) -> Tensor:
    """Copy rows of ``x`` (first axis) at ``indices``. The backward sums
    the row gradients back with one sparse transpose product."""
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise IndexError("gather_rows index out of range")

    def bwd(g):
        _accumulate_gathered(x, idx, g)

    return _make(x.data[idx], (x,), bwd, "gather")


def scatter_add(values, indices, out_rows: int) -> Tensor:
    """Accumulate rows of ``values`` into a fresh (out_rows, ...) tensor."""
    v = as_tensor(values)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= out_rows):
        raise IndexError("scatter_add index out of range")
    out = np.zeros((out_rows,) + v.data.shape[1:], dtype=v.data.dtype)
    np.add.at(out, idx, v.data)

    def bwd(g):
        v._accumulate(g[idx])

    return _make(out, (v,), bwd, "scatter_add")


def _segment_reduce(ufunc, values: np.ndarray, off: np.ndarray, empty=0.0) -> np.ndarray:
    """``ufunc.reduceat`` over contiguous CSR row segments, ``empty`` for
    empty segments. Each segment reduces on its own, so a sum's rounding
    error grows with its segment's length, not with the total row count."""
    out = np.full((len(off) - 1,) + values.shape[1:], empty, dtype=values.dtype)
    nonempty = off[1:] > off[:-1]
    if np.any(nonempty):
        out[nonempty] = ufunc.reduceat(values, off[:-1][nonempty], axis=0)
    return out


def segment_sum(values, offsets) -> Tensor:
    """Sum contiguous row segments given CSR ``offsets``; empty segments yield 0."""
    v = as_tensor(values)
    off = np.asarray(offsets, dtype=np.int64)
    _check_offsets(off, v.data.shape[0])
    seg_ids = _segment_ids(off)

    def bwd(g):
        v._accumulate(g[seg_ids])

    return _make(_segment_reduce(np.add, v.data, off), (v,), bwd, "segment_sum")


def csr_weighted_sum(weights, values, src, offsets) -> Tensor:
    """``out[i] = sum_e weights[e] * values[src[e]]`` over the edges e of CSR
    segment i: the gather of ``values`` by ``src``, the per-edge scaling and
    the segment sum as one sparse (segments, rows) product ``A @ values``.
    Empty segments yield 0. The backward is ``A^T @ g`` for the values and
    ``<g[segment of e], values[src[e]]>`` for each edge weight."""
    w, v = as_tensor(weights), as_tensor(values)
    col = np.asarray(src, dtype=np.int64)
    off = np.asarray(offsets, dtype=np.int64)
    if w.data.shape != col.shape or col.ndim != 1:
        raise ValueError("csr_weighted_sum expects one weight per edge")
    _check_offsets(off, len(col))
    if col.size and (col.min() < 0 or col.max() >= v.data.shape[0]):
        raise IndexError("csr_weighted_sum index out of range")
    a = sparse.csr_array((w.data, col, off), shape=(len(off) - 1, v.data.shape[0]))

    def bwd(g):
        if w.requires_grad:  # constant weights (the baseline's interpolation) need no gradient
            prod = g[_segment_ids(off)]
            prod *= v.data[col]
            w._accumulate(prod.sum(axis=1))
        v._accumulate(a.T @ g)

    return _make(a @ v.data, (w, v), bwd, "csr_weighted_sum")


# -- edge-block workers ---------------------------------------------------


def _start_worker(cpu: int) -> queue.SimpleQueue:
    """A daemon thread pinned to ``cpu``, and the queue it takes tasks from;
    while idle it blocks on the queue and never spins."""
    tasks = queue.SimpleQueue()
    threading.Thread(target=_block_worker, args=(cpu, tasks), name=f"pointmixer-blocks-cpu{cpu}", daemon=True).start()
    return tasks


def _block_worker(cpu: int, tasks: queue.SimpleQueue):
    try:
        os.sched_setaffinity(0, {cpu})  # pid 0: this thread only
    except OSError:
        pass  # the CPU left the affinity set since the pool was sized: run unpinned
    while True:
        run, scratch = tasks.get()
        run(scratch)
        del run, scratch  # an idle worker holds nothing of the last call


_workers: list | None = None  # task queues of the block workers, once started
_workers_lock = threading.Lock()


def _block_queues() -> list:
    """The task queues of the block workers, one per CPU the process may
    use, started on first use; empty where only one CPU is allowed or
    threads cannot be pinned."""
    global _workers
    with _workers_lock:
        if _workers is None:
            pinnable = hasattr(os, "sched_getaffinity") and hasattr(os, "sched_setaffinity")
            cpus = sorted(os.sched_getaffinity(0)) if pinnable else []
            _workers = [_start_worker(cpu) for cpu in cpus] if len(cpus) > 1 else []
        return _workers


def _drop_workers():
    """After a fork: the child has none of the parent's worker threads, so
    it starts its own on first use."""
    global _workers, _workers_lock
    _workers, _workers_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_workers)


def _run_blocks(n_blocks: int, make_scratch, body):
    """Call ``body(i, scratch)`` once for every block ``i < n_blocks``, on
    the block workers when there are two or more blocks and CPUs, else
    inline. Each worker, never more than there are blocks, takes blocks
    from a shared queue and gets its own scratch from ``make_scratch()``
    (a tuple of arrays and ``None``s), accounted here for its lifetime. The
    body may touch only numpy and private helpers, and must write each
    block's results to slices or slots of its own. The caller waits for
    blocks, not for workers: waking a worker on an idle CPU can take
    milliseconds in a virtual machine, and one that wakes after the others
    took every block returns at once. The first exception a block raised
    re-raises here once every block is done."""
    workers = _block_queues()[:n_blocks] if n_blocks > 1 else []
    scratch = [make_scratch() for _ in range(max(1, len(workers)))]
    nbytes = sum(b.nbytes for bufs in scratch for b in bufs if b is not None)
    if _alloc.enabled:
        _alloc.add(nbytes)
    try:
        if len(workers) < 2:
            for i in range(n_blocks):
                body(i, scratch[0])
            return
        todo, done = queue.SimpleQueue(), queue.SimpleQueue()
        for i in range(n_blocks):
            todo.put(i)

        def run(bufs):
            while True:
                try:
                    i = todo.get_nowait()
                except queue.Empty:
                    return
                try:
                    body(i, bufs)
                except BaseException as e:  # handed to the caller, which re-raises it
                    done.put(e)
                else:
                    done.put(None)

        for tasks, bufs in zip(workers, scratch):
            tasks.put((run, bufs))
        errors = [e for e in [done.get() for _ in range(n_blocks)] if e is not None]
        if errors:
            raise errors[0]
    finally:
        if _alloc.enabled:
            _alloc.sub(nbytes)


# -- nonlinearities & normalization ---------------------------------------


def _gelu_parts(x: np.ndarray, slope: bool, out=None, slope_out=None, cdf_out=None):
    """Exact-erf GELU ``x Phi(x)`` and, if ``slope``, its derivative
    ``Phi(x) + x pdf(x)`` (else ``None``), with ``Phi(x) = 0.5 (1 + erf(x /
    sqrt 2))`` built in place in one buffer and the derivative in another.
    ``out``, ``slope_out`` and ``cdf_out`` (scratch for Phi) are used when
    given; ``out`` may be ``x`` itself."""
    cdf = np.multiply(x, _INV_SQRT2, out=cdf_out)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    d = _gelu_slope(x, cdf, slope_out) if slope else None
    return np.multiply(x, cdf, out=out), d


def _gelu_slope(x: np.ndarray, cdf: np.ndarray, out=None) -> np.ndarray:
    """GELU's derivative ``Phi(x) + x pdf(x)`` from ``x`` and its ``Phi``,
    in place in ``out`` when given; no erf."""
    d = np.multiply(x, x, out=out)
    d *= -0.5
    np.exp(d, out=d)
    d *= _INV_SQRT2PI
    d *= x
    d += cdf
    return d


def gelu(a) -> Tensor:
    """Exact-erf GELU: x * Phi(x) with Phi the standard normal CDF. On the
    tape it keeps the derivative, not Phi, for its backward."""
    a = as_tensor(a)
    y, slope = _gelu_parts(a.data, _records_tape((a,)))

    def bwd(g):
        a._accumulate(slope * g)

    return _make(y, (a,), bwd, "gelu")


def layernorm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Standardize the last axis (population variance) then apply gamma, beta."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def bwd(g):
        gamma._accumulate(_unbroadcast(g * xhat, gamma.data.shape))
        beta._accumulate(_unbroadcast(g, beta.data.shape))
        gx = g * gamma.data
        # d/dx of (x - mu) / sqrt(var + eps) with mu, var functions of x
        term = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        x._accumulate(term * inv)

    return _make(xhat * gamma.data + beta.data, (x, gamma, beta), bwd, "layernorm")


def edge_scores(hidden, src, rel, W1, b1, W_fold, w2, b2) -> Tensor:
    """One score per edge e of a two-hidden-layer MLP:

        s_e = w2 . gelu(hidden[src_e] + W_fold gelu(W1 rel_e + b1)) + b2

    ``hidden`` (N, H) is the per-source term, ``rel`` (E, d) a constant
    per-edge input, ``W1`` (P, d), ``b1`` (P,), ``W_fold`` (H, P), ``w2``
    (1, H) and ``b2`` (1,); the result has shape (E,). The edges run in
    contiguous blocks of about ``_EDGE_BLOCK_FLOATS / max(P, H)`` rows, so
    each block's hidden layers stay in cache. With two or more blocks, the
    blocks spread over one pinned worker thread per CPU the process may use
    (``taskset`` limits them; see the module docstring). Each block writes
    its own rows of the output and of what the tape keeps, and the backward
    returns each block's partial weight gradients, which the caller adds in
    block order from zeros: every output and gradient is bit-identical to a
    serial pass. On the tape the op keeps ``Phi(W1 rel + b1)`` of the first
    hidden layer and the GELU output and derivative of the second, E (P +
    2H) values, nothing else. Its backward walks the same blocks, rebuilds
    the first layer's pre-activation, GELU output and derivative from
    ``rel`` and the kept Phi (a d-wide product, no erf), and sums
    ``hidden``'s per-edge gradient back per source row with one sparse
    transpose product."""
    h, W1, b1, wf, w2, b2 = (as_tensor(t) for t in (hidden, W1, b1, W_fold, w2, b2))
    col = np.asarray(src, dtype=np.int64)
    rel = np.asarray(rel)
    n_edges, width = len(col), h.data.shape[-1]
    pe = W1.data.shape[0]
    if (h.data.ndim != 2 or col.ndim != 1 or rel.shape != (n_edges, W1.data.shape[1]) or b1.data.shape != (pe,)
            or wf.data.shape != (width, pe) or w2.data.shape != (1, width) or b2.data.shape != (1,)):
        raise ValueError("edge_scores: inconsistent shapes")
    if n_edges and (col.min() < 0 or col.max() >= h.data.shape[0]):
        raise IndexError("edge_scores index out of range")
    dtype = np.result_type(h.data, rel, W1.data, b1.data, wf.data, w2.data, b2.data)
    rows = max(1, min(n_edges, _EDGE_BLOCK_FLOATS // max(pe, width)))
    blocks = [slice(s, min(s + rows, n_edges)) for s in range(0, n_edges, rows)]
    parents = (h, W1, b1, wf, w2, b2)
    save = _records_tape(parents)
    if save:
        cdf1 = np.empty((n_edges, pe), dtype)
        z2, d2 = np.empty((n_edges, width), dtype), np.empty((n_edges, width), dtype)
    h_data = h.data.astype(dtype, copy=False)
    out = np.empty(n_edges, dtype)

    def forward_scratch():
        # per-worker scratch, reused by every block it takes (fresh buffers
        # cost page faults): the second layer, and one flat buffer for the
        # first layer that then holds the gathered rows and Phi of the second
        # (plus one for Phi of the first when nothing keeps it)
        flat = rows * max(pe, width)
        return np.empty((rows, width), dtype), np.empty(flat, dtype), None if save else np.empty(flat, dtype)

    def forward_block(i, scratch):
        a2, t, c1 = scratch
        blk = blocks[i]
        m = blk.stop - blk.start
        a = np.matmul(rel[blk], W1.data.T, out=t[:m * pe].reshape(m, pe))
        a += b1.data
        z, _ = _gelu_parts(a, False, a, None, cdf1[blk] if save else c1[:m * pe].reshape(m, pe))
        a = np.matmul(z, wf.data.T, out=a2[:m])  # z is spent
        t = t[:m * width].reshape(m, width)
        a += np.take(h_data, col[blk], axis=0, out=t, mode="clip")  # checked above; "raise" would buffer
        z, _ = _gelu_parts(a, save, *((z2[blk], d2[blk]) if save else (a, None)), t)
        np.matmul(z, w2.data[0], out=out[blk])

    _run_blocks(len(blocks), forward_scratch, forward_block)
    out += b2.data

    def bwd(g):
        g_hidden = np.empty((n_edges, width), dtype)
        parts = [None] * len(blocks)  # per block: its terms of g_w2, g_wf, g_W1, g_b1

        def backward_scratch():
            return np.empty((rows, pe), dtype), np.empty((rows, pe), dtype)

        def backward_block(i, scratch):
            buf, d1 = scratch
            blk = blocks[i]
            m = blk.stop - blk.start
            # the first hidden layer again, bit for bit as the forward built it
            a = np.matmul(rel[blk], W1.data.T, out=buf[:m])
            a += b1.data
            d = _gelu_slope(a, cdf1[blk], d1[:m])
            z = np.multiply(a, cdf1[blk], out=a)
            p_w2 = g[blk] @ z2[blk]
            ga = np.multiply(g[blk, None], w2.data, out=g_hidden[blk])
            ga *= d2[blk]
            p_wf = ga.T @ z
            ga = np.matmul(ga, wf.data, out=buf[:m])  # z is spent
            ga *= d
            parts[i] = (p_w2, p_wf, ga.T @ rel[blk], ga.sum(axis=0))

        _run_blocks(len(blocks), backward_scratch, backward_block)
        g_w2, g_wf = np.zeros(width, dtype), np.zeros((width, pe), dtype)
        g_W1, g_b1 = np.zeros((pe, rel.shape[1]), dtype), np.zeros(pe, dtype)
        for p_w2, p_wf, p_W1, p_b1 in parts:  # block order, as one serial pass adds them
            g_w2 += p_w2
            g_wf += p_wf
            g_W1 += p_W1
            g_b1 += p_b1
        if h.requires_grad:
            _accumulate_gathered(h, col, g_hidden)
        W1._accumulate(g_W1)
        b1._accumulate(g_b1)
        wf._accumulate(g_wf)
        w2._accumulate(g_w2[None, :])
        b2._accumulate(g.sum(keepdims=True))

    if save and _alloc.enabled:
        # the kept arrays live as long as the backward closure: until the
        # tape walk releases it, or until the output dies unwalked
        kept = cdf1.nbytes + z2.nbytes + d2.nbytes
        _alloc.add(kept)
        weakref.finalize(bwd, _alloc.sub, kept)
    return _make(out, parents, bwd, "edge_scores")


def segment_softmax(scores, offsets) -> Tensor:
    """Softmax within each CSR segment of a flat score vector.

    Empty segments contribute no entries; singleton segments map to 1.
    Max-subtraction keeps the exponentials bounded. A 2-D (rows, channels)
    input is normalized segment-wise per channel.
    """
    s = as_tensor(scores)
    off = np.asarray(offsets, dtype=np.int64)
    if s.data.ndim not in (1, 2):
        raise ValueError("segment_softmax expects a flat or (rows, channels) score tensor")
    _check_offsets(off, s.data.shape[0])
    seg_ids = _segment_ids(off)
    seg_max = _segment_reduce(np.maximum, s.data, off, -np.inf)
    e = np.exp(s.data - seg_max[seg_ids])
    p = e / _segment_reduce(np.add, e, off)[seg_ids]

    def bwd(g):
        dot = _segment_reduce(np.add, p * g, off)
        s._accumulate(p * (g - dot[seg_ids]))

    return _make(p, (s,), bwd, "segment_softmax")


def segment_max(values, offsets) -> Tensor:
    """Per-segment max over contiguous CSR row segments; the subgradient
    routes to the first maximal row of each segment. Segments must be
    non-empty."""
    v = as_tensor(values)
    off = np.asarray(offsets, dtype=np.int64)
    if v.data.ndim != 2:
        raise ValueError("segment_max expects (rows, channels) values")
    _check_offsets(off, v.data.shape[0])
    if np.any(off[1:] == off[:-1]):
        raise ValueError("segment_max requires non-empty segments")
    out = _segment_reduce(np.maximum, v.data, off)

    def bwd(g):  # the first maximal row: the least row index that holds its segment's max
        n = len(v.data)
        rows = np.where(v.data == out[_segment_ids(off)], np.arange(n)[:, None], n)
        full = np.zeros_like(v.data)
        np.put_along_axis(full, _segment_reduce(np.minimum, rows, off), g, axis=0)
        v._accumulate(full)

    return _make(out, (v,), bwd, "segment_max")
