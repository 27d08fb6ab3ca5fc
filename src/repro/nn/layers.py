"""Core layers with explicit forward/backward passes.

Every layer caches exactly what its backward pass needs.  A layer instance
must complete a forward before its backward is called; calling forward again
overwrites the cache (layers are single-use per step, as in a static graph).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, derive_rng


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    def __init__(self, value: np.ndarray, name: str = "param"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self):
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Packing:
    """Where the rows of a packed ``(n, d)`` block sit in a ``(batch, seq)`` grid.

    The padding-free encoder (:mod:`repro.nn.transformer`) keeps only the
    real tokens of a batch as rows.  ``index`` holds each row's flat row-major grid position, ascending.
    ``slots`` is each row's position in a ``(batch, width)`` grid that packs
    every batch row's rows to the left; ``width`` is the most rows any batch
    row has.  ``rows`` locates these rows inside a larger packed block (the
    attention keys) when the packing is a subset of it, else it is ``None``.
    """

    def __init__(
        self,
        shape: Tuple[int, int],
        index: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ):
        batch, seq = shape
        self.shape = (batch, seq)
        self.index = index
        self.rows = rows
        owner = index // seq
        counts = np.bincount(owner, minlength=batch)
        self.width = int(counts.max(initial=0))
        first = np.cumsum(counts) - counts
        self.slots = owner * self.width + np.arange(index.size) - first[owner]

    @classmethod
    def of_mask(cls, mask: np.ndarray) -> "Packing":
        """The packing of every position where ``mask > 0``."""
        return cls(mask.shape, np.flatnonzero(mask > 0))

    def select(self, index: np.ndarray) -> "Packing":
        """The packing of a subset of these rows, given by grid position.

        ``index`` must be strictly increasing and name only rows held here.
        """
        index = np.asarray(index, dtype=np.int64)
        rows = np.searchsorted(self.index, index)
        if (
            np.any(np.diff(index) <= 0)
            or np.any(rows >= self.index.size)
            or np.any(self.index[rows] != index)
        ):
            raise ValueError(
                "selected positions must be real tokens in row-major order"
            )
        return Packing(self.shape, index, rows)

    def take(self, x: np.ndarray) -> np.ndarray:
        """These rows out of the larger block ``x`` they were selected from."""
        return x if self.rows is None else x[self.rows]

    def add_into(self, x: np.ndarray, part: np.ndarray) -> np.ndarray:
        """``x`` (the larger block) plus ``part`` (these rows of it); may
        update ``x`` in place."""
        if self.rows is None:
            return x + part
        x[self.rows] += part
        return x


class Module:
    """Base class: tracks sub-modules' parameters and train/eval mode."""

    def __init__(self):
        self.training = True

    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its sub-modules (depth-first)."""
        found: List[Parameter] = []
        for attr in vars(self).values():
            if isinstance(attr, Parameter):
                found.append(attr)
            elif isinstance(attr, Module):
                found.extend(attr.parameters())
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Module):
                        found.extend(item.parameters())
                    elif isinstance(item, Parameter):
                        found.append(item)
        return found

    def zero_grad(self):
        for parameter in self.parameters():
            parameter.zero_grad()

    def set_training(self, training: bool):
        self.training = training
        for attr in vars(self).values():
            if isinstance(attr, Module):
                attr.set_training(training)
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Module):
                        item.set_training(training)

    def n_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.value.size for p in self.parameters())


class Linear(Module):
    """Affine map over the last axis: ``y = x @ W + b``."""

    def __init__(self, d_in: int, d_out: int, seed: SeedLike = 0, name: str = "linear"):
        super().__init__()
        rng = derive_rng(seed, "linear", name, d_in, d_out)
        scale = np.sqrt(2.0 / (d_in + d_out))
        self.weight = Parameter(rng.normal(0.0, scale, size=(d_in, d_out)),
                                name=f"{name}.weight")
        self.bias = Parameter(np.zeros(d_out), name=f"{name}.bias")
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._input
        if x is None:
            raise RuntimeError("backward called before forward")
        flat_x = x.reshape(-1, x.shape[-1])
        flat_g = grad.reshape(-1, grad.shape[-1])
        self.weight.grad += flat_x.T @ flat_g
        self.bias.grad += flat_g.sum(axis=0)
        return grad @ self.weight.value.T


class Embedding(Module):
    """Id → vector lookup with scatter-add gradients."""

    def __init__(self, n_embeddings: int, dim: int, seed: SeedLike = 0,
                 name: str = "embedding"):
        super().__init__()
        rng = derive_rng(seed, "embedding", name, n_embeddings, dim)
        self.weight = Parameter(
            rng.normal(0.0, 0.02, size=(n_embeddings, dim)), name=f"{name}.weight"
        )
        self._ids: Optional[np.ndarray] = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        self._ids = np.asarray(ids, dtype=np.int64)
        return self.weight.value[self._ids]

    def backward(self, grad: np.ndarray) -> None:
        if self._ids is None:
            raise RuntimeError("backward called before forward")
        np.add.at(
            self.weight.grad,
            self._ids.reshape(-1),
            grad.reshape(-1, grad.shape[-1]),
        )
        return None  # ids carry no gradient


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5, name: str = "layernorm"):
        super().__init__()
        self.gamma = Parameter(np.ones(dim), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(dim), name=f"{name}.beta")
        self.eps = eps
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        normed = (x - mean) * inv_std
        self._cache = (normed, inv_std)
        return normed * self.gamma.value + self.beta.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        normed, inv_std = self._cache
        dim = normed.shape[-1]
        self.gamma.grad += (grad * normed).reshape(-1, dim).sum(axis=0)
        self.beta.grad += grad.reshape(-1, dim).sum(axis=0)
        g = grad * self.gamma.value
        # d/dx of (x - mean) * inv_std
        term1 = g
        term2 = g.mean(axis=-1, keepdims=True)
        term3 = normed * (g * normed).mean(axis=-1, keepdims=True)
        return (term1 - term2 - term3) * inv_std


class Dropout(Module):
    """Inverted dropout; identity in eval mode.

    For packed encoder rows, ``forward`` takes their :class:`Packing`: it
    still draws the uniform block
    for the whole ``(batch, seq, d)`` grid and keeps the entries at the
    packed positions, so the random stream and every row's mask are the
    same as for the padded grid.
    """

    def __init__(self, p: float = 0.1, seed: SeedLike = 0, name: str = "dropout"):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = derive_rng(seed, "dropout", name)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, packing: Optional[Packing] = None) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        if packing is None:
            draw = self._rng.random(x.shape)
        else:
            batch, seq = packing.shape
            draw = self._rng.random((batch, seq, x.shape[-1]))
            draw = draw.reshape(batch * seq, -1)[packing.index]
        self._mask = (draw >= self.p) / (1.0 - self.p)
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class GELU(Module):
    """Gaussian error linear unit (tanh approximation)."""

    _C = np.sqrt(2.0 / np.pi)

    def __init__(self):
        super().__init__()
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # x*x avoids np.power's generic pow kernel, the hottest leaf of the
        # pretraining profile; the squared term is reused by backward.
        x2 = x * x
        inner = self._C * (x + 0.044715 * (x2 * x))
        tanh = np.tanh(inner)
        self._cache = (x, x2, tanh)
        return 0.5 * x * (1.0 + tanh)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, x2, tanh = self._cache
        sech2 = 1.0 - tanh * tanh
        d_inner = self._C * (1.0 + 3 * 0.044715 * x2)
        local = 0.5 * (1.0 + tanh) + 0.5 * x * sech2 * d_inner
        return grad * local


__all__ = [
    "Packing",
    "Parameter",
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "GELU",
]
