"""Neural stack: backprop audited against finite differences, schedules and
optimizer against closed forms, checkpoints against bitwise roundtrips."""

import json
import math

import numpy as np
import pytest

from mcsda.neural import (
    HEAD_LR_MULT,
    MlpScorer,
    Schedules,
    SgdMomentum,
    center_scores,
    grad_reversal_step,
    lambda_schedule,
    lr_schedule,
)


def composed_loss(model, x):
    """Scalar test loss: sin over raw head outputs."""
    cache = model.forward(x)
    return sum(float(np.sum(np.sin(raw))) for raw in cache.raw.values())


def composed_grads(model, x):
    cache = model.forward(x)
    score_grads = {name: np.cos(raw) for name, raw in cache.raw.items()}
    return model.backward(cache, score_grads, score_grads)


class TestBackward:
    def test_finite_difference_audit(self):
        model = MlpScorer(2, {"f": 3, "d": 1}, hidden=(3,), feature_dim=2, seed=5)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 2))
        grads = composed_grads(model, x)
        eps = 1e-6
        worst = 0.0
        for name, p in model.params().items():
            g = grads[name]
            flat = p.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                up = composed_loss(model, x)
                flat[i] = keep - eps
                dn = composed_loss(model, x)
                flat[i] = keep
                fd = (up - dn) / (2 * eps)
                an = g.reshape(-1)[i]
                worst = max(worst, abs(fd - an) / max(1.0, abs(fd)))
        assert worst <= 1e-5

    def test_tiny_network_closed_form(self):
        # 1-d chain: feats = tanh(x), head = c * feats; dL/dc = tanh(x),
        # d(head)/d(psi w) = c (1 - tanh(x)^2) x for unit upstream gradient
        model = MlpScorer(1, {"f": 1}, hidden=(), feature_dim=1, seed=0)
        params = model.params()
        params["psi0.w"][...] = 1.0
        params["psi0.b"][...] = 0.0
        params["head:f.w"][...] = 2.0
        params["head:f.b"][...] = 0.0
        x = np.array([[0.3]])
        cache = model.forward(x)
        g = {"f": np.ones((1, 1))}
        grads = model.backward(cache, g, g)
        t = math.tanh(0.3)
        assert grads["head:f.w"][0, 0] == pytest.approx(t, abs=1e-12)
        assert grads["head:f.b"][0] == pytest.approx(1.0, abs=1e-12)
        assert grads["psi0.w"][0, 0] == pytest.approx(2.0 * (1 - t * t) * 0.3, abs=1e-12)
        assert grads["psi0.b"][0] == pytest.approx(2.0 * (1 - t * t), abs=1e-12)

    def test_zero_input_kills_first_weight_gradient(self):
        model = MlpScorer(2, {"f": 2}, hidden=(), feature_dim=3, seed=1)
        x = np.zeros((5, 2))
        cache = model.forward(x)
        g = {"f": np.ones((5, 2))}
        grads = model.backward(cache, g, g)
        np.testing.assert_allclose(grads["psi0.w"], 0.0, atol=0.0)
        assert np.any(grads["psi0.b"] != 0.0)

    def test_split_maps_route_heads_and_psi_separately(self):
        model = MlpScorer(2, {"f": 2, "d": 1}, hidden=(2,), feature_dim=2,
                          seed=2)
        rng = np.random.default_rng(3)
        cache = model.forward(rng.normal(size=(3, 2)))
        a = {"f": rng.normal(size=(3, 2)), "d": rng.normal(size=(3, 1))}
        b = {"f": rng.normal(size=(3, 2)), "d": rng.normal(size=(3, 1))}
        split = model.backward(cache, a, b)
        plain_a = model.backward(cache, a, a)
        plain_b = model.backward(cache, b, b)
        assert set(split) == set(model.params())
        for name, g in split.items():
            expect = plain_a[name] if name.startswith("head:") else plain_b[name]
            assert np.array_equal(g, expect), name
        heads = model.backward(cache, a, {})
        assert set(heads) == {"head:f.w", "head:f.b", "head:d.w", "head:d.b"}
        psi = model.backward(cache, {}, a)
        assert set(psi) == {"psi0.w", "psi0.b", "psi1.w", "psi1.b"}
        for name in heads:
            assert np.array_equal(heads[name], plain_a[name]), name
        for name in psi:
            assert np.array_equal(psi[name], plain_a[name]), name

    def test_gradient_shape_check(self):
        model = MlpScorer(2, {"f": 2}, seed=3)
        cache = model.forward(np.ones((3, 2)))
        bad = {"f": np.ones((4, 2))}
        with pytest.raises(ValueError):
            model.backward(cache, bad, {})
        with pytest.raises(ValueError):
            model.backward(cache, {}, bad)


class TestParameterArena:
    """Every parameter lives in ``theta``; the named arrays are views of it."""

    def _model(self):
        return MlpScorer(3, {"f": 4, "d": 1}, hidden=(5, 2), feature_dim=3, seed=9)

    def test_params_alias_the_arena_in_order(self):
        model = self._model()
        params = model.params()
        assert model.theta.dtype == np.float64 and model.theta.ndim == 1
        np.testing.assert_array_equal(
            np.concatenate([p.reshape(-1) for p in params.values()]), model.theta
        )
        for name, p in params.items():
            assert np.shares_memory(p, model.theta), name
        model.theta[:] = np.arange(model.theta.size)
        assert params["psi0.w"][0, 0] == 0.0 and params["head:d.b"][0] == model.theta.size - 1
        params["head:f.w"][...] = -1.0
        assert np.count_nonzero(model.theta == -1.0) == params["head:f.w"].size

    def test_save_bytes_are_the_per_array_concatenation(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.ckpt"
        model.save(path)
        block = path.read_bytes().split(b"\n", 1)[1]
        assert block == b"".join(p.astype("<f8").tobytes() for p in model.params().values())
        assert block == model.theta.astype("<f8").tobytes()

    def test_flat_update_equals_per_name_update(self):
        # the per-name loop the flat update replaced, kept as the oracle
        def per_name_step(params, vel, mult, grads, lr, momentum):
            for name, g in grads.items():
                v = vel[name]
                v *= momentum
                v += g
                params[name] -= lr * mult.get(name, 1.0) * v

        model, oracle = self._model(), self._model()
        opt = SgdMomentum(model.theta, 0.9, model._pack(model.lr_multipliers()))
        params, mult = oracle.params(), oracle.lr_multipliers()
        assert sorted(set(mult.values())) == [1.0, HEAD_LR_MULT]
        vel = {name: np.zeros_like(p) for name, p in params.items()}
        rng = np.random.default_rng(4)
        for t in range(6):
            grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
            lr = lr_schedule(t / 6, Schedules(eta0=0.05))
            opt.step(model._pack(grads), lr)
            per_name_step(params, vel, mult, grads, lr, 0.9)
            assert model.theta.tobytes() == oracle.theta.tobytes(), t

    def test_public_backward_equals_the_kernel_views(self):
        model = self._model()
        rng = np.random.default_rng(3)
        cache = model.forward(rng.normal(size=(6, 3)))
        a = {"f": rng.normal(size=(6, 4)), "d": rng.normal(size=(6, 1))}
        b = {"f": rng.normal(size=(6, 4))}
        for heads, psi in ((a, b), (a, {}), ({}, b), ({"d": a["d"]}, a)):
            got = model.backward(cache, heads, psi)
            flat, views = model._zero_grads()
            model._backward(cache, heads, psi, views)
            for name, g in views.items():
                want = got[name] if name in got else np.zeros_like(g)
                assert g.tobytes() == want.tobytes(), name
            assert flat.tobytes() == model._pack(got).tobytes()


class TestSchedules:
    def test_lr_frozen_endpoint(self):
        s = Schedules()
        assert lr_schedule(0.0, s) == 0.01
        assert lr_schedule(1.0, s) == pytest.approx(0.01 / 11.0 ** 0.75, abs=1e-15)
        assert lr_schedule(1.0, s) == pytest.approx(1.65560e-3, abs=1e-7)

    def test_lambda_frozen_endpoint(self):
        s = Schedules()
        assert lambda_schedule(0.0, s) == 0.0
        assert lambda_schedule(1.0, s) == pytest.approx(0.9999092, abs=1e-7)

    def test_eleven_point_closed_forms(self):
        # lr via exp/log1p, lambda via tanh: independent algebraic routes
        s = Schedules(eta0=0.05, alpha=10.0, beta=0.75, gamma=10.0)
        for p in np.linspace(0.0, 1.0, 11):
            lr_alt = s.eta0 * math.exp(-s.beta * math.log1p(s.alpha * p))
            lam_alt = math.tanh(s.gamma * p / 2.0)
            assert lr_schedule(p, s) == pytest.approx(lr_alt, abs=1e-12)
            assert lambda_schedule(p, s) == pytest.approx(lam_alt, abs=1e-12)

    def test_monotone(self):
        s = Schedules()
        ps = np.linspace(0, 1, 50)
        lrs = [lr_schedule(p, s) for p in ps]
        lams = [lambda_schedule(p, s) for p in ps]
        assert all(a > b for a, b in zip(lrs, lrs[1:]))
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            lr_schedule(-0.1, Schedules())
        with pytest.raises(ValueError):
            lambda_schedule(1.5, Schedules())
        with pytest.raises(ValueError):
            Schedules(eta0=0.0)
        with pytest.raises(ValueError):
            Schedules(momentum=1.0)


class TestSgdMomentum:
    def test_velocity_geometric_series(self):
        # constant gradient g: after T steps theta = theta0 - lr * g *
        # sum_{t=1..T} (1 - m^t) / (1 - m)
        theta = np.array([0.0])
        opt = SgdMomentum(theta, momentum=0.9)
        g = np.array([2.0])
        T, lr, m = 7, 0.1, 0.9
        for _ in range(T):
            opt.step(g, lr)
        expect = -lr * 2.0 * sum((1 - m ** t) / (1 - m) for t in range(1, T + 1))
        assert theta[0] == pytest.approx(expect, abs=1e-12)

    def test_head_multiplier_exact_ratio(self):
        theta = np.array([1.0, 1.0])  # [head:f.w, psi0.w]
        opt = SgdMomentum(theta, momentum=0.0, lr_multipliers=np.array([HEAD_LR_MULT, 1.0]))
        opt.step(np.array([1.0, 1.0]), lr=0.01)
        d_head = 1.0 - theta[0]
        d_psi = 1.0 - theta[1]
        assert d_head == pytest.approx(10.0 * d_psi, abs=1e-15)

    def test_model_lr_multipliers(self):
        model = MlpScorer(2, {"f": 2}, seed=0)
        mult = model.lr_multipliers()
        assert mult["head:f.w"] == HEAD_LR_MULT
        assert mult["psi0.w"] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SgdMomentum(np.zeros(1), momentum=-0.1)
        opt = SgdMomentum(np.zeros(1))
        with pytest.raises(ValueError):
            opt.step(np.zeros(1), lr=0.0)
        with pytest.raises(ValueError):  # a gradient for parameters theta does not hold
            opt.step(np.zeros(2), lr=0.1)


class TestGradReversal:
    def _setup(self):
        model = MlpScorer(2, {"f": 2, "f1": 2}, hidden=(), feature_dim=2, seed=4)
        opt = SgdMomentum(model.theta, momentum=0.0)
        task = {"head:f.w": np.full((2, 2), 1.0), "psi0.w": np.full((2, 2), 2.0)}
        disc = {"head:f1.w": np.full((2, 2), 3.0), "head:f.w": np.full((2, 2), 5.0),
                "psi0.w": np.full((2, 2), 4.0)}
        return model, opt, task, disc

    def test_effective_gradient_routing(self):
        model, opt, task, disc = self._setup()
        eff = grad_reversal_step(model, task, disc, zeta=0.5, adversary_heads=("f1",))
        # adversary head descends the disagreement term unscaled
        np.testing.assert_allclose(eff["head:f1.w"], 3.0)
        # feature map sees task minus zeta * disagreement
        np.testing.assert_allclose(eff["psi0.w"], 2.0 - 0.5 * 4.0)
        # task head ignores the disagreement term entirely
        np.testing.assert_allclose(eff["head:f.w"], 1.0)

    def test_zeta_on_adversary(self):
        model, opt, task, disc = self._setup()
        eff = grad_reversal_step(model, task, disc, zeta=0.5,
                                 adversary_heads=("f1",), zeta_on_adversary=True)
        np.testing.assert_allclose(eff["head:f1.w"], 0.5 * 3.0)

    def test_zeta_zero_is_plain_task_step(self):
        model, opt, task, disc = self._setup()
        before = {k: v.copy() for k, v in model.params().items()}
        eff = grad_reversal_step(model, task, disc, zeta=0.0, adversary_heads=("f1",))
        opt.step(model._pack(eff), 0.1)
        np.testing.assert_allclose(eff["psi0.w"], task["psi0.w"])
        moved = before["psi0.w"] - model.params()["psi0.w"]
        np.testing.assert_allclose(moved, 0.1 * task["psi0.w"], atol=1e-15)

    def test_two_parameter_finite_difference(self):
        # scalar minimax toy: task = 0.5 a^2, disagreement = a * c with c the
        # adversary weight; the feature parameter must receive a - zeta * c
        model = MlpScorer(1, {"f": 1, "f1": 1}, hidden=(), feature_dim=1, seed=6)
        params = model.params()
        a0, c0 = 0.7, 0.3
        params["psi0.w"][...] = a0
        params["head:f1.w"][...] = c0
        zeta = 0.25
        task = {"psi0.w": np.array([[a0]])}
        disc = {"psi0.w": np.array([[c0]]), "head:f1.w": np.array([[a0]])}
        eff = grad_reversal_step(model, task, disc, zeta=zeta, adversary_heads=("f1",))
        assert eff["psi0.w"][0, 0] == pytest.approx(a0 - zeta * c0, abs=1e-12)
        assert eff["head:f1.w"][0, 0] == pytest.approx(a0, abs=1e-12)


class TestCenteredScores:
    def test_center_rows(self):
        raw = np.array([[1.0, 2.0, 6.0]])
        np.testing.assert_allclose(center_scores(raw).sum(axis=1), 0.0, atol=1e-12)

    def test_grad_pullback_is_projection(self):
        # centering is an orthogonal projection, so the same map pulls a
        # gradient on centered scores back to the raw head outputs
        g = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(center_scores(g), [[2.0 / 3, -1.0 / 3, -1.0 / 3]], atol=1e-12)

    def test_scorer_callable_centers(self):
        model = MlpScorer(2, {"f": 3}, seed=7)
        s = model.scorer("f")(np.ones((4, 2)))
        np.testing.assert_allclose(s.sum(axis=1), 0.0, atol=1e-12)
        with pytest.raises(KeyError):
            model.scorer("nope")


class TestCheckpointAndDeterminism:
    def test_roundtrip_bitwise(self, tmp_path):
        model = MlpScorer(3, {"f": 4, "d": 1}, hidden=(5,), feature_dim=3, seed=9)
        path = tmp_path / "model.ckpt"
        model.save(path)
        clone = MlpScorer.load(path)
        for name, p in model.params().items():
            assert np.array_equal(p, clone.params()[name])
        x = np.random.default_rng(1).normal(size=(6, 3))
        np.testing.assert_array_equal(model.forward(x).raw["f"], clone.forward(x).raw["f"])

    def test_header_with_center_key_loads(self, tmp_path):
        # checkpoints once recorded an unused per-head "center" flag; the
        # key is ignored and the parameter block reads as before
        model = MlpScorer(3, {"f": 4, "d": 1}, hidden=(5,), feature_dim=3, seed=9)
        path = tmp_path / "model.ckpt"
        model.save(path)
        header_line, block = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        assert [set(h) for h in header["heads"]] == [{"name", "out_dim"}] * 2
        for h in header["heads"]:
            h["center"] = h["name"] == "f"
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + block)
        clone = MlpScorer.load(path)
        assert clone.head_names == ("f", "d") and clone.head_dim("d") == 1
        for name, p in model.params().items():
            assert np.array_equal(p, clone.params()[name])
        clone.save(path)
        assert path.read_bytes().split(b"\n", 1)[1] == block

    def test_truncated_payload_rejected(self, tmp_path):
        model = MlpScorer(2, {"f": 2}, seed=0)
        path = tmp_path / "model.ckpt"
        model.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError):
            MlpScorer.load(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"format": "other"}\n')
        with pytest.raises(ValueError):
            MlpScorer.load(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: [],
            lambda h: "mcsda-mlp-v1",
            lambda h: {k: v for k, v in h.items() if k != "in_dim"},
            lambda h: h | {"in_dim": None},
            lambda h: h | {"hidden": None},
            lambda h: h | {"heads": [1]},
            lambda h: h | {"heads": [{"name": "f"}]},
            lambda h: h | {"param_order": h["param_order"] + ["psi9.w"]},
            lambda h: h | {"param_order": [["psi0.w"]]},
        ],
        ids=[
            "list", "string", "no_in_dim", "null_in_dim", "null_hidden", "head_not_object",
            "head_without_width", "unknown_parameter", "unhashable_parameter",
        ],
    )
    def test_malformed_header_raises_value_error(self, edit, tmp_path):
        path = tmp_path / "model.ckpt"
        MlpScorer(2, {"f": 2}, hidden=(3,), seed=0).save(path)
        header_line, block = path.read_bytes().split(b"\n", 1)
        header = edit(json.loads(header_line))
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + block)
        with pytest.raises(ValueError):
            MlpScorer.load(path)

    def test_same_seed_same_model(self):
        a = MlpScorer(2, {"f": 3}, seed=11)
        b = MlpScorer(2, {"f": 3}, seed=11)
        for name, p in a.params().items():
            assert np.array_equal(p, b.params()[name])
