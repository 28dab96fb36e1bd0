"""Tests for the actor and the ensemble-based critic (Eq. 6)."""

import numpy as np
import pytest

from repro.core.actor_critic import Actor, CriticBaseModel, EnsembleCritic
from repro.core.replay import WorstCaseReplayBuffer
from repro.core.reward import FEASIBLE_REWARD


class TestActor:
    def test_act_stays_in_unit_box(self, rng):
        actor = Actor(6, rng=rng)
        output = actor.act(rng.uniform(size=6))
        assert output.shape == (6,)
        assert np.all(output >= 0.0) and np.all(output <= 1.0)

    def test_propose_adds_noise_but_stays_clipped(self, rng):
        actor = Actor(6, rng=rng)
        design = rng.uniform(size=6)
        proposals = np.stack([actor.propose(design, 0.3, rng) for _ in range(50)])
        assert np.all(proposals >= 0.0) and np.all(proposals <= 1.0)
        assert proposals.std() > 0.0

    def test_pretrain_towards_target(self, rng):
        actor = Actor(4, learning_rate=5e-3, rng=rng)
        target = np.array([0.2, 0.8, 0.5, 0.3])
        inputs = rng.uniform(size=(16, 4))
        loss = actor.pretrain_towards(inputs, target, steps=400)
        assert loss < 1e-2
        assert np.allclose(actor.act(inputs[0]), target, atol=0.15)


class TestCriticBaseModel:
    def test_training_reduces_loss(self, rng):
        model = CriticBaseModel(3, rng=rng)
        designs = rng.uniform(size=(64, 3))
        rewards = designs.sum(axis=1) / 10.0
        first = model.train_batch(designs, rewards)
        for _ in range(200):
            last = model.train_batch(designs, rewards)
        assert last < first * 0.5

    def test_predict_shape(self, rng):
        model = CriticBaseModel(3, rng=rng)
        assert model.predict(rng.uniform(size=(7, 3))).shape == (7,)


class TestEnsembleCritic:
    def test_invalid_ensemble_size(self, rng):
        with pytest.raises(ValueError):
            EnsembleCritic(3, ensemble_size=0, rng=rng)

    def test_base_predictions_shape(self, rng):
        critic = EnsembleCritic(3, ensemble_size=4, rng=rng)
        predictions = critic.base_predictions(rng.uniform(size=(5, 3)))
        assert predictions.shape == (4, 5)

    def test_risk_averse_bound_below_mean(self, rng):
        critic = EnsembleCritic(3, ensemble_size=5, beta1=-3.0, rng=rng)
        designs = rng.uniform(size=(10, 3))
        mean, std = critic.predict_components(designs)
        bound = critic.predict(designs)
        assert np.all(bound <= mean + 1e-12)
        assert np.all(bound == pytest.approx(mean - 3.0 * std))

    def test_single_model_bound_equals_mean(self, rng):
        critic = EnsembleCritic(3, ensemble_size=1, beta1=-3.0, rng=rng)
        designs = rng.uniform(size=(4, 3))
        mean, _ = critic.predict_components(designs)
        assert np.allclose(critic.predict(designs), mean)

    def test_training_fits_reward_surface(self, rng):
        critic = EnsembleCritic(2, ensemble_size=3, beta1=-1.0, rng=rng)
        buffer = WorstCaseReplayBuffer()
        for _ in range(200):
            design = rng.uniform(size=2)
            buffer.add(design, float(design.sum() / 5.0))
        for _ in range(300):
            critic.train(buffer, batch_size=16, rng=rng)
        low = critic.predict(np.array([[0.05, 0.05]]))[0]
        high = critic.predict(np.array([[0.95, 0.95]]))[0]
        assert high > low

    def test_bound_gradient_matches_finite_difference(self, rng):
        critic = EnsembleCritic(3, ensemble_size=3, beta1=-2.0, rng=rng)
        # Give the base models distinct weights via a little training.
        buffer = WorstCaseReplayBuffer()
        for _ in range(50):
            design = rng.uniform(size=3)
            buffer.add(design, float(np.sin(design.sum())))
        critic.train(buffer, batch_size=8, rng=rng)

        x = rng.uniform(size=(1, 3))
        analytic = critic.bound_gradient(x)[0]
        numeric = np.zeros(3)
        epsilon = 1e-5
        for index in range(3):
            x_plus, x_minus = x.copy(), x.copy()
            x_plus[0, index] += epsilon
            x_minus[0, index] -= epsilon
            numeric[index] = (
                critic.predict(x_plus)[0] - critic.predict(x_minus)[0]
            ) / (2 * epsilon)
        assert np.allclose(analytic, numeric, rtol=1e-3, atol=1e-6)

    def test_actor_loss_gradient_points_towards_higher_bound(self, rng):
        critic = EnsembleCritic(2, ensemble_size=3, beta1=-1.0, rng=rng)
        buffer = WorstCaseReplayBuffer()
        for _ in range(100):
            design = rng.uniform(size=2)
            buffer.add(design, float(design.sum() / 5.0 - 0.3))
        for _ in range(200):
            critic.train(buffer, batch_size=16, rng=rng)
        actions = np.array([[0.5, 0.5]])
        loss, grad = critic.actor_loss_gradient(actions, target=FEASIBLE_REWARD)
        assert loss > 0
        # Stepping against the gradient (gradient descent on the loss) should
        # reduce the loss, i.e. move the bound towards the 0.2 target.
        stepped = actions - 0.05 * grad / (np.linalg.norm(grad) + 1e-12)
        new_loss, _ = critic.actor_loss_gradient(stepped, target=FEASIBLE_REWARD)
        assert new_loss <= loss + 1e-9


def _reference_bound_gradient(critic: EnsembleCritic, designs: np.ndarray) -> np.ndarray:
    """The per-model bound gradient: a fresh cached forward per base model."""
    batch = designs.shape[0]
    predictions = critic.base_predictions(designs)
    mean = predictions.mean(axis=0)
    std = predictions.std(axis=0)
    ensemble = critic.ensemble_size
    gradient = np.zeros_like(designs, dtype=float)
    ones = np.ones((batch, 1))
    for index, model in enumerate(critic.base_models):
        model.network.forward(designs, cache=True)
        base_grad = model.network.input_gradient(ones)
        weight = np.full(batch, 1.0 / ensemble)
        if ensemble > 1 and critic.beta1 != 0.0:
            safe_std = np.where(std > 1e-12, std, np.inf)
            weight = weight + critic.beta1 * (
                (predictions[index] - mean) / (ensemble * safe_std)
            )
        gradient += base_grad * weight[:, None]
    return gradient


class TestSharedCriticForward:
    """``actor_loss_gradient`` runs one forward per base model and must
    equal, bit for bit, ``predict`` followed by the per-model gradient."""

    @pytest.mark.parametrize("ensemble_size", [1, 3, 5])
    @pytest.mark.parametrize("beta1", [0.0, -3.0])
    def test_matches_predict_then_bound_gradient(self, rng, ensemble_size, beta1):
        critic = EnsembleCritic(4, ensemble_size=ensemble_size, beta1=beta1, rng=rng)
        buffer = WorstCaseReplayBuffer()
        for _ in range(40):
            design = rng.uniform(size=4)
            buffer.add(design, float(np.cos(design.sum())))
        for _ in range(3):
            critic.train(buffer, batch_size=8, rng=rng)
        actions = rng.uniform(size=(10, 4))

        bound = critic.predict(actions)
        error = bound - FEASIBLE_REWARD
        expected_loss = float(np.mean(error**2))
        dloss_dbound = 2.0 * error / actions.shape[0]
        reference = _reference_bound_gradient(critic, actions)
        expected_grad = reference * dloss_dbound[:, None]

        loss, grad = critic.actor_loss_gradient(actions, target=FEASIBLE_REWARD)
        assert loss == expected_loss
        assert np.array_equal(grad, expected_grad)
        assert np.array_equal(critic.bound_gradient(actions), reference)
