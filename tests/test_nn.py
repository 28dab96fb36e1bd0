"""Tests for the numpy neural-network building blocks (repro.core.nn)."""

import numpy as np
import pytest

from repro.core.nn import AdamOptimizer, DenseLayer, MultiLayerPerceptron


class TestDenseLayer:
    def test_forward_shape(self, rng):
        layer = DenseLayer(4, 3, rng=rng)
        outputs = layer.forward(np.zeros((5, 4)))
        assert outputs.shape == (5, 3)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            DenseLayer(2, 2, activation="softplus")

    def test_backward_before_forward_rejected(self, rng):
        layer = DenseLayer(2, 2, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_zero_grad(self, rng):
        layer = DenseLayer(2, 2, rng=rng)
        layer.forward(np.ones((1, 2)))
        layer.backward(np.ones((1, 2)))
        assert np.any(layer.grad_weights != 0)
        layer.zero_grad()
        assert np.all(layer.grad_weights == 0)


class TestMlpGradients:
    def test_parameter_gradient_matches_finite_difference(self, rng):
        network = MultiLayerPerceptron([3, 8, 1], rng=rng)
        inputs = rng.normal(size=(4, 3))
        targets = rng.normal(size=(4, 1))

        def loss_value():
            predictions = network.forward(inputs, cache=False)
            return float(np.mean((predictions - targets) ** 2))

        predictions = network.forward(inputs, cache=True)
        grad = 2.0 * (predictions - targets) / predictions.shape[0]
        network.zero_grad()
        network.backward(grad)

        weight = network.layers[0].weights
        analytic = network.layers[0].grad_weights[0, 0]
        epsilon = 1e-6
        weight[0, 0] += epsilon
        loss_plus = loss_value()
        weight[0, 0] -= 2 * epsilon
        loss_minus = loss_value()
        weight[0, 0] += epsilon
        numeric = (loss_plus - loss_minus) / (2 * epsilon)
        assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_input_gradient_matches_finite_difference(self, rng):
        network = MultiLayerPerceptron([3, 8, 1], rng=rng)
        x = rng.normal(size=(1, 3))
        network.forward(x, cache=True)
        analytic = network.input_gradient(np.ones((1, 1)))[0]

        epsilon = 1e-6
        numeric = np.zeros(3)
        for index in range(3):
            x_plus, x_minus = x.copy(), x.copy()
            x_plus[0, index] += epsilon
            x_minus[0, index] -= epsilon
            numeric[index] = (
                network.forward(x_plus, cache=False)[0, 0]
                - network.forward(x_minus, cache=False)[0, 0]
            ) / (2 * epsilon)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_input_gradient_does_not_touch_parameter_grads(self, rng):
        network = MultiLayerPerceptron([3, 4, 1], rng=rng)
        network.zero_grad()
        network.forward(np.ones((2, 3)), cache=True)
        network.input_gradient(np.ones((2, 1)))
        assert all(np.all(g == 0) for g in network.gradients())


class TestMlpTraining:
    def test_regression_converges(self, rng):
        network = MultiLayerPerceptron([1, 16, 16, 1], rng=rng)
        optimizer = AdamOptimizer(network, learning_rate=5e-3)
        inputs = np.linspace(-1, 1, 64).reshape(-1, 1)
        targets = np.sin(2.0 * inputs)

        first_loss = None
        for _ in range(400):
            predictions = network.forward(inputs, cache=True)
            error = predictions - targets
            loss = float(np.mean(error**2))
            if first_loss is None:
                first_loss = loss
            optimizer.zero_grad()
            network.backward(2.0 * error / error.shape[0])
            optimizer.step()
        assert loss < first_loss * 0.1

    def test_sigmoid_output_bounded(self, rng):
        network = MultiLayerPerceptron(
            [4, 8, 4], output_activation="sigmoid", rng=rng
        )
        outputs = network.forward(rng.normal(size=(10, 4)) * 5)
        assert np.all(outputs >= 0.0)
        assert np.all(outputs <= 1.0)

    def test_copy_weights_from(self, rng):
        a = MultiLayerPerceptron([2, 4, 1], rng=rng)
        b = MultiLayerPerceptron([2, 4, 1], rng=rng)
        b.copy_weights_from(a)
        x = rng.normal(size=(3, 2))
        assert np.allclose(a.forward(x, cache=False), b.forward(x, cache=False))

    def test_minimum_two_layer_sizes(self):
        with pytest.raises(ValueError):
            MultiLayerPerceptron([4])


class _ReferenceAdam:
    """Per-array Adam: one moment pair and one update per parameter array."""

    def __init__(self, network, learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.network = network
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.first = [np.zeros_like(p) for p in network.parameters()]
        self.second = [np.zeros_like(p) for p in network.parameters()]
        self.count = 0

    def step(self):
        self.count += 1
        pairs = zip(self.network.parameters(), self.network.gradients())
        for index, (param, grad) in enumerate(pairs):
            m = self.first[index]
            v = self.second[index]
            m[...] = self.beta1 * m + (1.0 - self.beta1) * grad
            v[...] = self.beta2 * v + (1.0 - self.beta2) * grad**2
            m_hat = m / (1.0 - self.beta1**self.count)
            v_hat = v / (1.0 - self.beta2**self.count)
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def _regression_step(network, optimizer, inputs, targets):
    predictions = network.forward(inputs, cache=True)
    network.zero_grad()
    network.backward(2.0 * (predictions - targets) / predictions.shape[0])
    optimizer.step()


class TestFlatBuffers:
    def test_flat_adam_matches_per_array_reference(self):
        flat = MultiLayerPerceptron([5, 16, 16, 2], rng=np.random.default_rng(7))
        reference = MultiLayerPerceptron([5, 16, 16, 2], rng=np.random.default_rng(7))
        flat_adam = AdamOptimizer(flat, learning_rate=3e-3)
        reference_adam = _ReferenceAdam(reference, learning_rate=3e-3)
        data = np.random.default_rng(8)
        for _ in range(200):
            inputs = data.normal(size=(10, 5))
            targets = data.normal(size=(10, 2))
            _regression_step(flat, flat_adam, inputs, targets)
            _regression_step(reference, reference_adam, inputs, targets)
            for mine, theirs in zip(flat.parameters(), reference.parameters()):
                assert np.array_equal(mine, theirs)

    @staticmethod
    def _assert_views(network):
        flat_params = np.concatenate([p.ravel() for p in network.parameters()])
        flat_grads = np.concatenate([g.ravel() for g in network.gradients()])
        assert np.array_equal(flat_params, network.flat_parameters)
        assert np.array_equal(flat_grads, network.flat_gradients)
        for layer in network.layers:
            for array in (layer.weights, layer.bias):
                assert np.shares_memory(array, network.flat_parameters)
            for array in (layer.grad_weights, layer.grad_bias):
                assert np.shares_memory(array, network.flat_gradients)

    def test_layer_arrays_are_views_of_flat_buffers(self, rng):
        network = MultiLayerPerceptron([3, 8, 4, 1], rng=rng)
        self._assert_views(network)
        network.forward(rng.normal(size=(6, 3)), cache=True)
        network.backward(np.ones((6, 1)))
        assert np.any(network.flat_gradients != 0)
        self._assert_views(network)
        AdamOptimizer(network).step()
        self._assert_views(network)
        network.zero_grad()
        assert not np.any(network.flat_gradients)
        self._assert_views(network)

    def test_views_survive_copy_weights_from(self, rng):
        a = MultiLayerPerceptron([2, 4, 1], rng=rng)
        b = MultiLayerPerceptron([2, 4, 1], rng=rng)
        b.copy_weights_from(a)
        self._assert_views(b)
        assert np.array_equal(a.flat_parameters, b.flat_parameters)
        assert not np.shares_memory(a.flat_parameters, b.flat_parameters)
        # Writes through the layer views land in the flat buffer.
        b.layers[0].weights[0, 0] += 1.0
        assert b.flat_parameters[0] == a.flat_parameters[0] + 1.0
