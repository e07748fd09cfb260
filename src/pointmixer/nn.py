"""Differentiable primitives, parameter storage, SGD, and gradient checking.

Everything trains in float64; the backward pass of every op here is verified
against central finite differences in the test suite.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff
from .autodiff import (
    Tensor,
    as_tensor,
    gather_rows,
    gelu,
    layernorm,
    no_grad,
    scatter_add,
    segment_softmax,
    segment_sum,
)

__all__ = [
    "Tensor",
    "Rng",
    "ParamStore",
    "Linear",
    "LayerNorm",
    "Mlp2",
    "linear",
    "layernorm",
    "gelu",
    "segment_softmax",
    "segment_sum",
    "gather_rows",
    "scatter_add",
    "dropout",
    "sgd_step",
    "cosine_lr",
    "check_gradient",
    "save_checkpoint",
    "load_checkpoint",
    "no_grad",
]


class Rng:
    """Deterministic random stream: PCG64 seeded through a SeedSequence.

    Identical seeds produce identical streams on every platform; child
    streams from :meth:`spawn` are independent and equally reproducible.
    """

    def __init__(self, seed: int | np.random.SeedSequence = 0):
        self._seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def spawn(self, n: int) -> list["Rng"]:
        return [Rng(s) for s in self._seq.spawn(n)]

    def uniform(self, low, high, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def normal(self, scale=1.0, shape=None) -> np.ndarray:
        return self._gen.normal(0.0, scale, shape)

    def integers(self, low, high, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def random(self, shape=None) -> np.ndarray:
        return self._gen.random(shape)


@dataclass
class _Entry:
    value: Tensor
    momentum: np.ndarray


class ParamStore:
    """Named trainable parameters with their gradients and momentum buffers."""

    def __init__(self):
        self._entries: dict[str, _Entry] = {}

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(array, dtype=np.float64), requires_grad=True)
        self._entries[name] = _Entry(t, np.zeros(t.data.shape))  # calloc'd: no pass over the bytes
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name].value

    def names(self) -> list[str]:
        return list(self._entries)

    def tensors(self):
        for name, e in self._entries.items():
            yield name, e.value

    def momentum(self, name: str) -> np.ndarray:
        return self._entries[name].momentum

    def zero_grad(self):
        for e in self._entries.values():
            e.value.grad = None

    def scale_grads(self, factor: float):
        for e in self._entries.values():
            if e.value.grad is not None:
                e.value.grad *= factor

    def param_count(self) -> int:
        return sum(e.value.data.size for e in self._entries.values())

    def state(self) -> dict[str, np.ndarray]:
        return {name: e.value.data.copy() for name, e in self._entries.items()}

    def load_state(self, state: dict[str, np.ndarray]):
        missing = set(self._entries) - set(state)
        extra = set(state) - set(self._entries)
        if missing or extra:
            raise ValueError(f"parameter name mismatch (missing={sorted(missing)}, extra={sorted(extra)})")
        arrays = {name: np.array(state[name], dtype=np.float64) for name in self._entries}  # copies
        for name, e in self._entries.items():  # every shape checked before any entry changes
            if arrays[name].shape != e.value.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arrays[name].shape} vs {e.value.data.shape}")
        for name, e in self._entries.items():
            e.value.data = arrays[name]
            e.momentum = np.zeros(arrays[name].shape)


# -- layers ----------------------------------------------------------------


linear = autodiff.linear


def _init_weight(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, (fan_out, fan_in))


@dataclass
class Linear:
    W: Tensor
    b: Tensor

    @classmethod
    def create(cls, store: ParamStore, name: str, fan_in: int, fan_out: int, rng: Rng) -> "Linear":
        return cls(
            store.add(f"{name}.W", _init_weight(rng, fan_in, fan_out)),
            store.add(f"{name}.b", np.zeros(fan_out)),
        )

    def __call__(self, x) -> Tensor:
        return linear(x, self.W, self.b)


@dataclass
class LayerNorm:
    gamma: Tensor
    beta: Tensor

    @classmethod
    def create(cls, store: ParamStore, name: str, width: int) -> "LayerNorm":
        return cls(store.add(f"{name}.gamma", np.ones(width)), store.add(f"{name}.beta", np.zeros(width)))

    def __call__(self, x) -> Tensor:
        return layernorm(x, self.gamma, self.beta)


@dataclass
class Mlp2:
    """linear -> GELU -> linear."""

    fc1: Linear
    fc2: Linear

    @classmethod
    def create(cls, store: ParamStore, name: str, dims: tuple[int, int, int], rng: Rng) -> "Mlp2":
        d_in, d_hidden, d_out = dims
        return cls(
            Linear.create(store, f"{name}.l1", d_in, d_hidden, rng),
            Linear.create(store, f"{name}.l2", d_hidden, d_out, rng),
        )

    def __call__(self, x) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


def dropout(x, rate: float, rng: Rng, training: bool) -> Tensor:
    """Inverted dropout; identity when evaluating or rate == 0."""
    x = as_tensor(x)
    if not training or rate <= 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    return x * Tensor(keep.astype(x.dtype) / (1.0 - rate))


# -- optimization ----------------------------------------------------------


def sgd_step(store: ParamStore, lr: float, momentum: float = 0.9, weight_decay: float = 1e-4):
    """Classic momentum SGD with weight decay folded into the gradient:
    ``m = momentum m + (grad + wd w)``, ``w -= lr m``, updated in place
    (``.grad`` is left as it is; a missing gradient counts as zero). Every
    product goes through one scratch buffer, sized to the largest
    parameter."""
    entries = store._entries.values()
    scratch = np.empty(max((e.value.data.size for e in entries), default=0))
    for e in entries:
        data, g, m = e.value.data, e.value.grad, e.momentum
        buf = scratch[: data.size].reshape(data.shape)
        if weight_decay:
            np.multiply(weight_decay, data, out=buf)
            if g is not None:
                buf += g
            g = buf
        m *= momentum
        if g is not None:
            m += g
        data -= np.multiply(lr, m, out=buf)


def cosine_lr(epoch: int, total_epochs: int, base_lr: float) -> float:
    """Cosine annealing from base_lr at epoch 0 toward 0 at total_epochs."""
    if not 0 <= epoch < total_epochs:
        raise ValueError("epoch out of range")
    return float(base_lr * (1.0 + np.cos(np.pi * epoch / total_epochs)) / 2.0)


# -- verification ----------------------------------------------------------


def check_gradient(f, params, h: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar function against fourth-order
    central finite differences, coordinate by coordinate.

    The five-point stencil ``(f(-2h) - 8 f(-h) + 8 f(+h) - f(+2h)) / 12h``
    has O(h^4) truncation error, so a strongly curved function does not
    read as a wrong gradient at the default ``h``; it costs four function
    evaluations per coordinate.

    ``f`` must rebuild its graph from the current contents of ``params``
    (a sequence of Tensors) on every call. Returns the max over all
    coordinates of |analytic - numeric| / max(1, |numeric|).
    """
    params = list(params)
    for p in params:
        p.grad = None
    out = f()
    if out.size != 1:
        raise ValueError("check_gradient requires a scalar-valued function")
    out.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    worst = 0.0
    with no_grad():
        for p, g in zip(params, analytic):
            flat = p.data.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                fs = []
                for step in (-2.0 * h, -h, h, 2.0 * h):
                    flat[i] = orig + step
                    fs.append(f().item())
                flat[i] = orig
                if not np.all(np.isfinite(fs)):
                    raise FloatingPointError("non-finite value during finite differencing")
                fm2, fm1, fp1, fp2 = fs
                numeric = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
                rel = abs(gflat[i] - numeric) / max(1.0, abs(numeric))
                if rel > worst:
                    worst = rel
    return worst


# -- checkpoint format -----------------------------------------------------

CHECKPOINT_MAGIC = b"PMIX1"


def save_checkpoint(path, arrays: dict[str, np.ndarray]):
    """Write named float64 arrays: magic, count, then per entry the name,
    rank, extents, and little-endian raw values. Round-trips bit-exactly."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(arrays)))
        for name, arr in arrays.items():
            data = np.asarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            fh.write(data.tobytes())


def _read_exact(fh, n: int) -> bytes:
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ValueError(f"truncated checkpoint: {n} more bytes needed, {left} left")
    return fh.read(n)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic: {magic!r}")
        (count,) = struct.unpack("<Q", _read_exact(fh, 8))
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4))
            name = _read_exact(fh, name_len).decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4))
            shape = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank)) if rank else ()
            n = math.prod(shape)  # exact: a corrupt extent list cannot overflow
            data = np.frombuffer(_read_exact(fh, 8 * n), dtype="<f8").reshape(shape)
            if not np.all(np.isfinite(data)):
                raise ValueError(f"non-finite values in checkpoint array {name!r}")
            out[name] = data.astype(np.float64)
    return out
