"""Minimal feed-forward neural networks with Adam, in pure numpy.

The paper's actor and critic are small 4-layer perceptrons trained with a
DDPG-style procedure.  This module provides exactly what that needs:

* :class:`DenseLayer` — affine layer with cached forward pass,
* :class:`MultiLayerPerceptron` — a stack of dense layers and activations
  with full backpropagation, *including gradients with respect to the
  input* (needed to push actor outputs through the critic), and
* :class:`AdamOptimizer` — per-network Adam state.

A network owns one flat parameter vector and one flat gradient vector
(``flat_parameters`` / ``flat_gradients``, layer by layer, weights before
bias).  Every layer's ``weights``, ``bias``, ``grad_weights`` and
``grad_bias`` are reshaped views into them, so backpropagation writes
straight into the flat gradient, ``zero_grad`` is a single ``fill`` and
Adam applies its element-wise update once per network instead of once
per array.  Element-wise arithmetic does not care how the elements are
grouped, so the flat update is bit-identical to a per-array one.  Write
into the views in place (``layer.weights[...] = ...``); rebinding the
attribute would detach the layer from the flat buffer.

Everything operates on 2-D arrays of shape ``(batch, features)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


# Each activation comes with its backward rule ``(grad_output, x) ->
# grad_output * f'(x)``.  ReLU multiplies by the boolean mask directly (the
# ufunc casts it to exact 0.0/1.0) and the identity passes the gradient
# through, since multiplying by 1.0 changes no bit.


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _relu_backward(grad: np.ndarray, x: np.ndarray) -> np.ndarray:
    return grad * (x > 0.0)


def _tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _tanh_backward(grad: np.ndarray, x: np.ndarray) -> np.ndarray:
    return grad * (1.0 - np.tanh(x) ** 2)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _sigmoid_backward(grad: np.ndarray, x: np.ndarray) -> np.ndarray:
    s = _sigmoid(x)
    return grad * (s * (1.0 - s))


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def _identity_backward(grad: np.ndarray, x: np.ndarray) -> np.ndarray:
    return grad


_ACTIVATIONS: Dict[str, Tuple[Callable, Callable]] = {
    "relu": (_relu, _relu_backward),
    "tanh": (_tanh, _tanh_backward),
    "sigmoid": (_sigmoid, _sigmoid_backward),
    "linear": (_identity, _identity_backward),
}


class DenseLayer:
    """A fully connected layer ``y = x @ W + b`` with an activation."""

    def __init__(
        self,
        input_size: int,
        output_size: int,
        activation: str = "relu",
        rng: Optional[np.random.Generator] = None,
    ):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = rng if rng is not None else np.random.default_rng()
        scale = np.sqrt(2.0 / (input_size + output_size))
        self.weights = rng.normal(0.0, scale, size=(input_size, output_size))
        self.bias = np.zeros(output_size)
        self.activation = activation
        self._act, self._act_backward = _ACTIVATIONS[activation]
        # Caches populated during forward passes.
        self._last_input: Optional[np.ndarray] = None
        self._last_preactivation: Optional[np.ndarray] = None
        # Gradient accumulators.
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, inputs: np.ndarray, cache: bool = True) -> np.ndarray:
        preactivation = inputs @ self.weights + self.bias
        if cache:
            self._last_input = inputs
            self._last_preactivation = preactivation
        return self._act(preactivation)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backprop through the layer, accumulating parameter gradients."""
        if self._last_input is None or self._last_preactivation is None:
            raise RuntimeError("backward called before forward")
        grad_pre = self._act_backward(grad_output, self._last_preactivation)
        self.grad_weights += self._last_input.T @ grad_pre
        self.grad_bias += grad_pre.sum(axis=0)
        return grad_pre @ self.weights.T

    def input_gradient(self, grad_output: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the input only (no parameter-gradient update)."""
        if self._last_preactivation is None:
            raise RuntimeError("input_gradient called before forward")
        grad_pre = self._act_backward(grad_output, self._last_preactivation)
        return grad_pre @ self.weights.T

    def zero_grad(self) -> None:
        self.grad_weights.fill(0.0)
        self.grad_bias.fill(0.0)

    def bind(self, parameters: np.ndarray, gradients: np.ndarray, offset: int) -> int:
        """Move this layer's arrays into ``parameters``/``gradients`` at ``offset``.

        The current parameter values are copied into the flat slice and the
        layer's parameter and gradient attributes become reshaped views of
        the two buffers; returns the offset just past this layer.
        """
        for name, grad_name in (("weights", "grad_weights"), ("bias", "grad_bias")):
            array = getattr(self, name)
            end = offset + array.size
            view = parameters[offset:end].reshape(array.shape)
            view[...] = array
            setattr(self, name, view)
            setattr(self, grad_name, gradients[offset:end].reshape(array.shape))
            offset = end
        return offset

    def parameters(self) -> List[np.ndarray]:
        return [self.weights, self.bias]

    def gradients(self) -> List[np.ndarray]:
        return [self.grad_weights, self.grad_bias]


class MultiLayerPerceptron:
    """A plain MLP with backprop and input-gradient support."""

    def __init__(
        self,
        layer_sizes: Sequence[int],
        hidden_activation: str = "relu",
        output_activation: str = "linear",
        rng: Optional[np.random.Generator] = None,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output size")
        rng = rng if rng is not None else np.random.default_rng()
        self.layers: List[DenseLayer] = []
        for index in range(len(layer_sizes) - 1):
            is_last = index == len(layer_sizes) - 2
            activation = output_activation if is_last else hidden_activation
            self.layers.append(
                DenseLayer(
                    layer_sizes[index],
                    layer_sizes[index + 1],
                    activation=activation,
                    rng=rng,
                )
            )
        self.input_size = layer_sizes[0]
        self.output_size = layer_sizes[-1]
        size = sum(layer.weights.size + layer.bias.size for layer in self.layers)
        self.flat_parameters = np.empty(size)
        self.flat_gradients = np.zeros(size)
        offset = 0
        for layer in self.layers:
            offset = layer.bind(self.flat_parameters, self.flat_gradients, offset)

    def forward(self, inputs: np.ndarray, cache: bool = True) -> np.ndarray:
        outputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        for layer in self.layers:
            outputs = layer.forward(outputs, cache=cache)
        return outputs

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backprop a loss gradient; returns the gradient w.r.t. the input."""
        grad = np.atleast_2d(np.asarray(grad_output, dtype=float))
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def input_gradient(self, grad_output: np.ndarray) -> np.ndarray:
        """Input gradient without touching parameter-gradient accumulators."""
        grad = np.atleast_2d(np.asarray(grad_output, dtype=float))
        for layer in reversed(self.layers):
            grad = layer.input_gradient(grad)
        return grad

    def zero_grad(self) -> None:
        self.flat_gradients.fill(0.0)

    def parameters(self) -> List[np.ndarray]:
        params: List[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> List[np.ndarray]:
        grads: List[np.ndarray] = []
        for layer in self.layers:
            grads.extend(layer.gradients())
        return grads

    def copy_weights_from(self, other: "MultiLayerPerceptron") -> None:
        """Hard-copy another network's parameters (target-network style)."""
        self.flat_parameters[...] = other.flat_parameters


@dataclass
class AdamOptimizer:
    """Adam optimiser bound to one network's flat parameter vector."""

    network: MultiLayerPerceptron
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        self._first_moment = np.zeros_like(self.network.flat_parameters)
        self._second_moment = np.zeros_like(self.network.flat_parameters)
        self._step_count = 0

    def step(self) -> None:
        """Apply one Adam update from the accumulated gradients."""
        self._step_count += 1
        param = self.network.flat_parameters
        grad = self.network.flat_gradients
        m = self._first_moment
        v = self._second_moment
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        m_hat = m / (1.0 - self.beta1**self._step_count)
        v_hat = v / (1.0 - self.beta2**self._step_count)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def zero_grad(self) -> None:
        self.network.zero_grad()
