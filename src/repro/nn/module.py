"""Module base class: parameter registration, traversal, train/eval modes.

Mirrors the minimal subset of ``torch.nn.Module`` the reproduction relies on.
Submodules and parameters are discovered automatically from attributes, so
model code looks like idiomatic PyTorch.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList"]


class Parameter(Tensor):
    """A trainable tensor; always requires grad.

    A parameter may be *packed* into a :class:`~repro.nn.arena.ParameterArena`,
    in which case ``.data`` and ``.grad`` are views into the arena's
    contiguous flat buffers and must be mutated in place rather than
    reassigned (see the arena module for the view invariants).
    """

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        # Set by ParameterArena when this parameter is packed; None means
        # the parameter owns standalone .data/.grad arrays.
        self._arena = None
        self._arena_offset = 0

    def zero_grad(self) -> None:
        """Clear the gradient.

        Unpacked parameters drop the gradient array (``grad = None``, the
        historical behaviour); packed parameters keep their arena view bound
        and zero it in place, so the view invariant survives.
        """
        if self._arena is not None:
            self.grad.fill(0.0)
        else:
            self.grad = None


class Module:
    """Base class for all neural network components."""

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs in deterministic attribute order.

        Lists, tuples and dicts are walked to any depth: list items are
        named by index and dict values by key (in insertion order), so
        ``heads={"CTR": ...}`` yields ``heads.CTR.weight``.  These names
        are the checkpoint format.
        """
        for name, value in vars(self).items():
            if isinstance(value, _WALKED):
                yield from _named_parameters(value, f"{prefix}.{name}" if prefix else name)

    def parameters(self) -> list[Parameter]:
        """All parameters of this module and its submodules."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every submodule (depth-first)."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, _CONTAINERS):
                yield from _modules(value)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear the gradients of every parameter in the module tree."""
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        """Switch the whole module tree to training mode."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Switch the whole module tree to evaluation mode."""
        for module in self.modules():
            module.training = False
        return self

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot parameter values (copied)."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameter values from :meth:`state_dict` output."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, value in state.items():
            param = params[name]
            if param.data.shape != value.shape:
                raise ValueError(f"shape mismatch for {name}")
            if param._arena is not None:
                # Packed parameter: write through the arena view so the
                # flat-buffer binding survives checkpoint restores.
                np.copyto(param.data, value)
            else:
                param.data = np.array(value, dtype=np.float64)

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        """Compute the module's output; subclasses implement this."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


_CONTAINERS = (list, tuple, dict)
_WALKED = (Parameter, Module) + _CONTAINERS


def _items(container) -> Iterator[tuple[object, object]]:
    return container.items() if isinstance(container, dict) else enumerate(container)


def _named_parameters(value, name: str) -> Iterator[tuple[str, Parameter]]:
    if isinstance(value, Parameter):
        yield name, value
    elif isinstance(value, Module):
        yield from value.named_parameters(name)
    else:
        for key, item in _items(value):
            if isinstance(item, _WALKED):
                yield from _named_parameters(item, f"{name}.{key}")


def _modules(container) -> Iterator[Module]:
    for _, item in _items(container):
        if isinstance(item, Module):
            yield from item.modules()
        elif isinstance(item, _CONTAINERS):
            yield from _modules(item)


class ModuleList(Module):
    """A list of submodules registered for parameter traversal."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self._items: list[Module] = list(modules)

    def append(self, module: Module) -> None:
        """Add a submodule to the end of the list."""
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def named_parameters(self, prefix: str = ""):
        for i, module in enumerate(self._items):
            sub = f"{prefix}.{i}" if prefix else str(i)
            yield from module.named_parameters(sub)

    def modules(self):
        yield self
        for module in self._items:
            yield from module.modules()

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container; call its items instead")
