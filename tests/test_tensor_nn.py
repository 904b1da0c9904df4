import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from s2cd.tensor_nn import (
    DenseNet,
    GradientError,
    Head,
    NetSpec,
    OptimState,
    StackedNets,
    adamw_step,
    load_net,
    log_softmax,
    save_net,
)


def finite_difference(loss_fn, params, indices, h=1e-6):
    """Central-difference gradient oracle at the given parameter indices."""
    grads = np.zeros(len(indices))
    for k, i in enumerate(indices):
        p_plus = params.copy()
        p_plus[i] += h
        p_minus = params.copy()
        p_minus[i] -= h
        grads[k] = (loss_fn(p_plus) - loss_fn(p_minus)) / (2.0 * h)
    return grads


def manual_forward(net, x):
    """Independent matrix-multiply chain used as the forward oracle."""
    h = np.asarray(x, dtype=np.float64)
    offset = 0
    dims = net.spec.dims
    for layer, (fi, fo) in enumerate(zip(dims, dims[1:])):
        w = net.params[offset : offset + fi * fo].reshape(fi, fo)
        b = net.params[offset + fi * fo : offset + (fi + 1) * fo]
        offset += (fi + 1) * fo
        z = h @ w + b
        h = np.tanh(z) if layer < len(dims) - 2 else z
    return h


def reference_forward(net, x):
    """The forward pass as written before the layer views were cached:
    every layer sliced out of ``net.params`` on each call, one observation
    run as a one-row batch, and the softmax reduced through the ``.max``,
    ``.sum`` and ``np.clip`` wrappers."""
    logits = manual_forward(net, np.atleast_2d(x))
    if net.spec.head is Head.SOFTMAX_POLICY:
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        out = np.clip(e / e.sum(axis=1, keepdims=True), 1e-300, 1.0)
    elif net.spec.head is Head.SCALAR_VALUE:
        out = logits[:, 0]
    else:
        out = logits
    return out[0] if np.ndim(x) == 1 else out


HEADS = [(Head.SOFTMAX_POLICY, 3), (Head.SCALAR_VALUE, 1), (Head.VECTOR_VALUE, 3)]


class TestForwardExactness:
    @pytest.mark.parametrize("head,out_dim", HEADS)
    def test_bit_equal_to_per_call_slicing(self, head, out_dim):
        rng = np.random.default_rng(11)
        net = DenseNet.create(NetSpec(14, out_dim, head=head), rng)
        # a large final layer drives some probabilities onto the 1e-300 floor
        net.params[-(64 + 1) * out_dim:] *= rng.choice([1.0, 1e2, 1e5], size=(64 + 1) * out_dim)
        batch = rng.uniform(-1, 1, size=(64, 14))
        out, _ = net.forward(batch)
        assert np.array_equal(out, reference_forward(net, batch))
        for x in batch:
            one, _ = net.forward(x)
            assert np.array_equal(one, reference_forward(net, x))
        if head is Head.SOFTMAX_POLICY:
            assert (out == 1e-300).any()

    @pytest.mark.parametrize("head,out_dim", HEADS)
    def test_in_place_write_and_reassignment_reach_forward(self, head, out_dim):
        rng = np.random.default_rng(12)
        net = DenseNet.create(NetSpec(5, out_dim, hidden=(8, 8), head=head), rng)
        x = rng.uniform(-1, 1, size=5)
        before, _ = net.forward(x)
        net.params[3] += 0.5  # first-layer weight
        after, _ = net.forward(x)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, reference_forward(net, x))
        net.params = net.params * 1.1
        scaled, _ = net.forward(x)
        assert np.array_equal(scaled, reference_forward(net, x))

    def test_backward_uses_current_params(self):
        rng = np.random.default_rng(13)
        net = DenseNet.create(NetSpec(5, 3, hidden=(8, 8), head=Head.VECTOR_VALUE), rng)
        net.params[-1] = 2.0
        net.params[10] -= 0.25
        x = rng.uniform(size=(4, 5))
        dz = rng.normal(size=(4, 3))
        fresh = DenseNet(net.spec, net.params.copy())
        assert np.array_equal(net.backward_from_logits(net.forward(x)[1], dz),
                              fresh.backward_from_logits(fresh.forward(x)[1], dz))

    def test_rejects_wrong_parameter_count(self):
        net = DenseNet.create(NetSpec(4, 1), np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.params = np.zeros(3)


@st.composite
def random_nets(draw, count=1):
    """``count`` nets of one random architecture, each with a random head of
    its output width, at weight scales from initial to saturating, and the
    generator that drew them."""
    out_dim = draw(st.sampled_from([1, 3]))
    heads = [Head.SCALAR_VALUE] if out_dim == 1 else [Head.SOFTMAX_POLICY, Head.VECTOR_VALUE]
    hidden = draw(st.one_of(st.just((64, 64)),
                            st.lists(st.integers(1, 80), min_size=1, max_size=3).map(tuple)))
    input_dim = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nets = []
    for _ in range(count):
        spec = NetSpec(input_dim, out_dim, hidden=hidden, head=draw(st.sampled_from(heads)))
        net = DenseNet.create(spec, rng)
        net.params *= draw(st.sampled_from([1.0, 3.0, 30.0]))
        nets.append(net)
    return nets, rng


class TestStackedRows:
    """A stack of (1, d) rows runs one gemv per row, as the single forward
    does, so every row keeps its single-forward bits; a gemm batch does not
    (ROADMAP item 1). ``test_avx2_tier`` re-runs these under the AVX2 tier."""

    @settings(max_examples=60, deadline=None)
    @given(random_nets(), st.integers(1, 300))
    def test_row_stack_matches_single_forwards(self, case, n):
        (net,), rng = case
        rows = rng.uniform(-1, 1, size=(n, net.spec.input_dim))
        single = np.array([net.forward(x)[0] for x in rows])
        assert net.forward_rows(rows).tobytes() == single.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(random_nets(count=3), st.integers(1, 20))
    def test_three_net_stack_matches_each_forward(self, case, n):
        nets, rng = case
        stack = StackedNets(nets)
        for x in rng.uniform(-1, 1, size=(n, nets[0].spec.input_dim)):
            for net, out in zip(nets, stack.forward(x)):
                assert np.asarray(out).tobytes() == np.asarray(net.forward(x)[0]).tobytes()

    def test_stack_rejects_other_widths_and_bad_input(self):
        rng = np.random.default_rng(0)
        a = DenseNet.create(NetSpec(4, 3, hidden=(8, 8), head=Head.VECTOR_VALUE), rng)
        with pytest.raises(ValueError, match="layer widths"):
            StackedNets([a, DenseNet.create(NetSpec(4, 3, hidden=(8, 9),
                                                    head=Head.VECTOR_VALUE), rng)])
        stack = StackedNets([a, a.copy()])
        with pytest.raises(ValueError, match="non-finite network input"):
            stack.forward(np.array([0.0, np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError, match="input dim"):
            stack.forward(np.zeros(5))

    def test_avx2_tier(self):
        """The two properties above in a process that uses OpenBLAS's Haswell
        kernels and numpy's AVX2 loops, set before numpy loads."""
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
                   NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_SKX AVX512_CLX AVX512_CNL "
                                            "AVX512_ICL AVX512_SPR",
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(Path(__file__).resolve().parents[1] / "src"),
                       os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k",
             "row_stack_matches or three_net_stack_matches"],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        assert "2 passed" in done.stdout


class TestForward:
    def test_zero_final_layer_gives_uniform_policy(self):
        spec = NetSpec(11, 3, head=Head.SOFTMAX_POLICY)
        net = DenseNet.create(spec, np.random.default_rng(0))
        # zero the last layer weights and biases
        n_last = (64 + 1) * 3
        net.params[-n_last:] = 0.0
        probs, _ = net.forward(np.random.default_rng(1).uniform(size=11))
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-15)

    def test_policy_output_is_distribution(self):
        spec = NetSpec(11, 3, head=Head.SOFTMAX_POLICY)
        rng = np.random.default_rng(2)
        net = DenseNet.create(spec, rng)
        for _ in range(50):
            p, _ = net.forward(rng.uniform(-1, 1, size=11))
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0)

    def test_value_head_matches_manual_matrix_chain(self):
        spec = NetSpec(7, 1, hidden=(16, 8), head=Head.SCALAR_VALUE)
        rng = np.random.default_rng(3)
        net = DenseNet.create(spec, rng)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=7)
            v, _ = net.forward(x)
            assert v == pytest.approx(float(manual_forward(net, x)[0]), abs=1e-12)

    def test_vector_head_matches_manual_matrix_chain(self):
        spec = NetSpec(11, 3, hidden=(32, 32), head=Head.VECTOR_VALUE)
        rng = np.random.default_rng(4)
        net = DenseNet.create(spec, rng)
        x = rng.uniform(-1, 1, size=(5, 11))
        out, _ = net.forward(x)
        assert np.allclose(out, manual_forward(net, x), atol=1e-12)

    def test_forward_deterministic(self):
        spec = NetSpec(11, 3, head=Head.SOFTMAX_POLICY)
        net = DenseNet.create(spec, np.random.default_rng(5))
        x = np.linspace(0, 1, 11)
        p1, _ = net.forward(x)
        p2, _ = net.forward(x)
        assert np.array_equal(p1, p2)

    def test_rejects_nonfinite_input(self):
        net = DenseNet.create(NetSpec(4, 1), np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.forward(np.array([1.0, np.nan, 0.0, 0.0]))

    def test_rejects_wrong_input_dim(self):
        net = DenseNet.create(NetSpec(4, 1), np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.forward(np.zeros(5))


class TestBackward:
    @pytest.mark.parametrize("head,out_dim", HEADS)
    def test_gradient_matches_finite_differences(self, head, out_dim):
        spec = NetSpec(6, out_dim, hidden=(12, 12), head=head)
        rng = np.random.default_rng(11)
        net = DenseNet.create(spec, rng)
        x = rng.uniform(-1, 1, size=(4, 6))
        # fixed linear loss over the cached logits keeps the oracle simple
        w_loss = rng.uniform(-1, 1, size=(4, out_dim))

        def loss(params):
            _, (_, logits, _, _) = DenseNet(spec, params).forward(x)
            return float(np.sum(logits * w_loss))

        _, cache = net.forward(x)
        grads = net.backward_from_logits(cache, w_loss)
        idx = rng.choice(spec.n_params, size=200, replace=False)
        fd = finite_difference(loss, net.params, idx)
        scale = np.maximum(np.abs(fd), 1e-3)
        rel = np.abs(grads[idx] - fd) / scale
        assert rel.max() < 1e-6

    def test_zero_seed_gives_zero_gradient(self):
        x = np.random.default_rng(2).uniform(size=(3, 5))
        for head, out_dim in HEADS:
            net = DenseNet.create(NetSpec(5, out_dim, head=head), np.random.default_rng(1))
            _, cache = net.forward(x)
            grads = net.backward_from_logits(cache, np.zeros((3, out_dim)))
            assert np.all(grads == 0.0)

    def test_backward_linearity(self):
        rng = np.random.default_rng(9)
        for head, out_dim in HEADS:
            net = DenseNet.create(NetSpec(5, out_dim, head=head), np.random.default_rng(1))
            x = rng.uniform(size=(2, 5))
            g1 = rng.uniform(-1, 1, size=(2, out_dim))
            g2 = rng.uniform(-1, 1, size=(2, out_dim))
            _, cache = net.forward(x)
            lhs = net.backward_from_logits(cache, 2.5 * g1 - 0.5 * g2)
            rhs = (2.5 * net.backward_from_logits(cache, g1)
                   - 0.5 * net.backward_from_logits(cache, g2))
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_mismatched_gradient_shape_rejected(self):
        for head, out_dim in HEADS:
            net = DenseNet.create(NetSpec(5, out_dim, head=head), np.random.default_rng(1))
            _, cache = net.forward(np.zeros((2, 5)))
            for shape in ((3, out_dim), (2, out_dim + 1), (2,)):
                with pytest.raises(ValueError):
                    net.backward_from_logits(cache, np.zeros(shape))


class TestLogSoftmax:
    def test_matches_log_of_softmax_for_moderate_logits(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-5, 5, size=(10, 3))
        lp = log_softmax(z)
        assert np.allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-12)

    def test_stays_finite_for_extreme_logits(self):
        z = np.array([[800.0, -800.0, 0.0]])
        lp = log_softmax(z)
        assert np.all(np.isfinite(lp))

    def test_bit_equal_to_wrapper_reductions(self):
        z = np.random.default_rng(1).normal(size=(500, 3)) * np.array([1.0, 50.0, 800.0])
        m = z - z.max(axis=1, keepdims=True)
        assert np.array_equal(log_softmax(z), m - np.log(np.exp(m).sum(axis=1, keepdims=True)))


class TestAdamW:
    def test_zero_gradients_fixed_point(self):
        net = DenseNet.create(NetSpec(4, 1), np.random.default_rng(0))
        state = OptimState.for_net(net)
        before = net.params.copy()
        after = adamw_step(state, net.params, np.zeros_like(net.params), progress=0.3)
        assert np.array_equal(after, before)

    def test_full_progress_freezes_params(self):
        net = DenseNet.create(NetSpec(4, 1), np.random.default_rng(0))
        state = OptimState.for_net(net)
        grads = np.random.default_rng(1).uniform(-1, 1, size=net.params.shape)
        after = adamw_step(state, net.params, grads, progress=1.0)
        assert np.array_equal(after, net.params)

    def test_descends_quadratic(self):
        # f(w) = w^2 has gradient 2w; one step from w=1 must decrease w
        params = np.array([1.0])
        state = OptimState(m=np.zeros(1), v=np.zeros(1), base_lr=0.1, lr_decay=False)
        after = adamw_step(state, params, np.array([2.0]), progress=0.0)
        assert after[0] < 1.0

    def test_nan_gradient_aborts(self):
        params = np.zeros(3)
        state = OptimState(m=np.zeros(3), v=np.zeros(3))
        with pytest.raises(GradientError):
            adamw_step(state, params, np.array([0.0, np.nan, 1.0]), progress=0.0)

    def test_lr_decay_flag(self):
        params = np.array([0.0])
        g = np.array([1.0])
        s1 = OptimState(m=np.zeros(1), v=np.zeros(1), base_lr=0.1, lr_decay=True)
        s2 = OptimState(m=np.zeros(1), v=np.zeros(1), base_lr=0.1, lr_decay=False)
        a1 = adamw_step(s1, params, g, progress=0.5)
        a2 = adamw_step(s2, params, g, progress=0.5)
        assert abs(a1[0]) == pytest.approx(abs(a2[0]) / 2.0, rel=1e-9)


class TestCheckpoint:
    @pytest.mark.parametrize("old", [None, b"old checkpoint"])
    def test_interrupted_save_keeps_old_bytes_and_no_temp_file(self, tmp_path, monkeypatch,
                                                               old):
        path = tmp_path / "net.json"
        if old is not None:
            path.write_bytes(old)

        def interrupt(src, dst):
            raise KeyboardInterrupt
        monkeypatch.setattr(os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            save_net(DenseNet.create(NetSpec(3, 1), np.random.default_rng(0)), path)
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["net.json"])
        if old is not None:
            assert path.read_bytes() == old

    def test_roundtrip_bit_exact(self, tmp_path):
        spec = NetSpec(11, 3, head=Head.SOFTMAX_POLICY)
        net = DenseNet.create(spec, np.random.default_rng(42))
        path = tmp_path / "net.json"
        save_net(net, path)
        loaded = load_net(path)
        assert loaded.spec == net.spec
        assert np.array_equal(loaded.params, net.params)
        # byte-identical on re-save
        save_net(loaded, tmp_path / "net2.json")
        assert (tmp_path / "net.json").read_bytes() == (tmp_path / "net2.json").read_bytes()

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 99, "spec": {}, "params": []}')
        with pytest.raises(ValueError):
            load_net(path)

    @pytest.mark.parametrize("activation", ["relu", "Tanh", None])
    def test_rejects_other_activations(self, tmp_path, activation):
        path = tmp_path / "net.json"
        save_net(DenseNet.create(NetSpec(3, 1), np.random.default_rng(0)), path)
        payload = json.loads(path.read_text())
        assert payload["spec"]["activation"] == "tanh"
        payload["spec"]["activation"] = activation
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="only tanh"):
            load_net(path)
