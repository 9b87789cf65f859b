"""Autodiff core: forward values against numpy, gradients against central differences."""

import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mmists import tensor as T
from mmists.tensor import (
    AdamState,
    ParamInit,
    ShapeError,
    Tape,
    Tensor,
    adam_init,
    adam_step,
    buffer_views,
    attention,
    bce_with_logits,
    causal_conv1d,
    concat,
    gather_rows,
    layer_norm,
    linear,
    reduce_mean,
    relu,
    reshape,
    sigmoid,
)
from gradcheck import finite_difference_gradients, reduce_sum, relative_error, sin, transpose
from oracles import layer_norm_oracle


def check_grads(build_loss, params: dict, tol: float = 1e-4, step: float = 1e-5):
    """Compare tape gradients of build_loss() against central differences."""
    with Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    analytic = {k: tape.grad(p).copy() for k, p in params.items()}
    numeric = finite_difference_gradients(lambda: build_loss().item(), params, step=step)
    for k in params:
        err = relative_error(analytic[k], numeric[k])
        assert err < tol, f"{k}: rel err {err:.3e}"


class TestForward:
    def test_arithmetic_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        ta, tb = Tensor(a), Tensor(b)
        assert_allclose((ta + tb).data, a + b)
        assert_allclose((ta - tb).data, a - b)
        assert_allclose((ta * tb).data, a * b)
        assert_allclose((-ta).data, -a)
        assert_allclose((ta * 2.5).data, a * 2.5)
        assert_allclose((1.0 - ta).data, 1.0 - a)
        assert_allclose((ta / 2.0).data, a / 2.0)

    def test_sigmoid_extremes_are_stable(self):
        x = Tensor(np.array([-800.0, -30.0, 0.0, 30.0, 800.0]))
        s = sigmoid(x).data
        assert np.all(np.isfinite(s))
        assert s[0] == 0.0 and s[-1] == 1.0
        assert s[2] == 0.5

    def test_reductions(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4, 5))
        tx = Tensor(x)
        assert_allclose(reduce_sum(tx).data, x.sum())
        assert_allclose(reduce_sum(tx, axis=1).data, x.sum(axis=1))
        assert_allclose(reduce_mean(tx, axis=(0, 2), keepdims=True).data, x.mean(axis=(0, 2), keepdims=True))

    def test_shape_ops(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        tx = Tensor(x)
        assert_allclose(reshape(tx, (2, 2, 6)).data, x.reshape(2, 2, 6))
        assert_allclose(transpose(reshape(tx, (2, 2, 6)), (1, 0, 2)).data, x.reshape(2, 2, 6).swapaxes(0, 1))
        assert_allclose(concat([tx, tx * 2.0], axis=-1).data, np.concatenate([x, 2 * x], axis=-1))

    def test_zero_size_dimension_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((0, 3)))

    def test_layer_norm_normalizes(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(7, 8)) * 3 + 1
        out = layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_causal_conv_only_sees_past(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 3))
        kernel = rng.normal(size=(2, 3, 4))
        bias = rng.normal(size=4)
        out = causal_conv1d(Tensor(x), Tensor(kernel), Tensor(bias)).data
        # perturbing a later input row must not change earlier output rows
        x2 = x.copy()
        x2[4] += 10.0
        out2 = causal_conv1d(Tensor(x2), Tensor(kernel), Tensor(bias)).data
        assert_allclose(out[:4], out2[:4])
        assert not np.allclose(out[4], out2[4])
        # first row: only the newest kernel tap applies (earlier taps hit padding)
        assert_allclose(out[0], x[0] @ kernel[1] + bias)

    def test_kernel_one_conv_is_pointwise(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 3))
        kernel = rng.normal(size=(1, 3, 2))
        bias = rng.normal(size=2)
        out = causal_conv1d(Tensor(x), Tensor(kernel), Tensor(bias)).data
        assert_allclose(out, x @ kernel[0] + bias)

    def test_batched_causal_conv_matches_each_sequence(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 6, 2))
        kernel, bias = Tensor(rng.normal(size=(2, 2, 4))), Tensor(rng.normal(size=4))
        out = causal_conv1d(Tensor(x), kernel, bias).data
        for b in range(3):
            assert_allclose(out[b], causal_conv1d(Tensor(x[b]), kernel, bias).data, rtol=0, atol=1e-14)

    def test_gather_rows_picks_one_row_per_matrix(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        assert_allclose(gather_rows(Tensor(x), np.array([2, 0])).data, [[x[0, 2]], [x[1, 0]]])
        assert_allclose(gather_rows(Tensor(x[0]), 1).data, x[0, 1:2])
        with pytest.raises(ShapeError):
            gather_rows(Tensor(x), np.array([3, 0]))

    def test_gather_rows_of_one_row_matrices_is_the_identity(self):
        one = Tensor(np.arange(8.0).reshape(2, 1, 4))
        with Tape() as tape:
            assert gather_rows(one, np.array([0, 0])) is one
            assert not tape.nodes
        with pytest.raises(ShapeError):
            gather_rows(one, 1)

    def test_transpose_matches_numpy(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        assert_allclose(transpose(Tensor(x), (2, 0, 1)).data, np.transpose(x, (2, 0, 1)))

    def test_bce_with_logits_matches_reference(self):
        logits = np.array([-2.0, 0.0, 3.0, 8.0, -5.0])
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        got = bce_with_logits(Tensor(logits), y).item()
        p = 1.0 / (1.0 + np.exp(-logits))
        want = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        assert got == pytest.approx(want, rel=1e-6)
        assert np.isfinite(bce_with_logits(Tensor(np.array([1000.0])), np.array([0.0])).item())


class TestBackward:
    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(10)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4,)))
        c = Tensor(rng.normal(size=(3, 1)))
        check_grads(lambda: reduce_sum(mul_chain(a, b, c)), {"a": a, "b": b, "c": c})

    def test_linear_folds_leading_rows_into_one_product(self):
        rng = np.random.default_rng(14)
        a = Tensor(rng.normal(size=(2, 3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        bias = Tensor(rng.normal(size=2))
        w = rng.normal(size=(2, 3, 2))
        with Tape() as tape:
            out = linear(a, b, bias)
            tape.backward(reduce_sum(out * w))
        # the same product spelled as an explicit per-matrix loop
        assert_allclose(out.data, np.stack([a.data[i] @ b.data + bias.data for i in range(2)]), rtol=1e-13)
        assert_allclose(tape.grad(b), sum(a.data[i].T @ w[i] for i in range(2)), rtol=1e-13)
        assert_allclose(tape.grad(a), w @ b.data.T, rtol=1e-13)
        assert_allclose(tape.grad(bias), w.sum(axis=(0, 1)), rtol=1e-13)

    def test_linear_grads_and_constant_input(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(rng.normal(size=(4, 5)))
        b = Tensor(rng.normal(size=5))
        check_grads(lambda: reduce_sum(sin(linear(x, w, b))), {"x": x, "w": w, "b": b})
        const = rng.normal(size=(3, 4))
        check_grads(lambda: reduce_sum(sin(linear(const, w, b))), {"w": w, "b": b})
        with Tape() as tape:
            out = linear(const, w, b)
        # one node, the op; it refers to the weight and the bias, not the constant
        assert len(tape.nodes) == 1 and tape.nodes[0].inputs == (w, b)
        with pytest.raises(ShapeError):
            linear(x, Tensor(np.ones((5, 4))), b)

    def test_attention_grads_with_mask_and_keyless_member(self):
        rng = np.random.default_rng(23)
        q = Tensor(rng.normal(size=(2, 3, 4)))
        k = Tensor(rng.normal(size=(2, 5, 4)))
        v = Tensor(rng.normal(size=(2, 5, 4)))
        mask = np.array([[True, False, True, True, False], [False] * 5])
        w = rng.normal(size=(2, 3, 4))
        check_grads(lambda: reduce_sum(sin(attention(q, k, v, 2, mask)) * w), {"q": q, "k": k, "v": v})
        out = attention(q, k, v, 2, mask).data
        assert_allclose(out[1], 0.0)  # a member with no valid key gets zero rows
        check_grads(lambda: reduce_sum(sin(attention(q, k, v, 4)) * w), {"q": q, "k": k, "v": v})

    def test_attention_shape_errors(self):
        x = Tensor(np.ones((3, 4)))
        with pytest.raises(ShapeError):
            attention(x, x, x, 3)
        with pytest.raises(ShapeError):
            attention(x, Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))), 2)

    def test_time2vec_matches_per_head_loop(self):
        rng = np.random.default_rng(24)
        omega = rng.normal(size=(3, 5))
        phi = rng.normal(size=(3, 5))
        times = rng.random(4)
        got, kept = T._time2vec(T._time2vec_rows(times), omega, phi)
        assert kept is None
        for v in range(3):
            want = times[:, None] * omega[v] + phi[v]
            want[:, 1:] = np.sin(want[:, 1:])
            assert_allclose(got[v], want, rtol=1e-13, atol=1e-15)

    def test_time2vec_backward_matches_central_differences(self):
        rng = np.random.default_rng(25)
        omega = Tensor(rng.normal(size=(2, 4)) * 3.0)
        phi = Tensor(rng.normal(size=(2, 4)))
        rows = T._time2vec_rows(rng.random(5))
        w = rng.normal(size=(2, 5, 4))
        _, kept = T._time2vec(rows, omega.data, phi.data, keep=True)
        analytic = T._time2vec_backward(rows, T._time2vec_rebuild(kept)[1], w)
        numeric = finite_difference_gradients(
            lambda: float(np.sum(T._time2vec(rows, omega.data, phi.data)[0] * w)), {"omega": omega, "phi": phi}
        )
        for name, got in zip(("omega", "phi"), analytic):
            assert relative_error(got, numeric[name]) < 1e-4, name

    def test_transpose_and_gather_rows(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        w = rng.normal(size=(4, 2, 3))
        check_grads(lambda: reduce_sum(sin(transpose(x, (2, 0, 1))) * w), {"x": x})
        v = rng.normal(size=(2, 1, 4))
        check_grads(lambda: reduce_sum(sin(gather_rows(x, np.array([1, 2]))) * v), {"x": x})

    def test_batched_causal_conv_grads(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(2, 5, 3)))
        kernel = Tensor(rng.normal(size=(2, 3, 4)) * 0.3)
        bias = Tensor(rng.normal(size=4) * 0.1)
        check_grads(
            lambda: reduce_sum(sin(causal_conv1d(x, kernel, bias))),
            {"x": x, "kernel": kernel, "bias": bias},
        )

    def test_unary_chain(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(4, 5)))
        check_grads(lambda: reduce_mean(sigmoid(sin(x)) * relu(x)), {"x": x})

    def test_relu_at_safe_points(self):
        x = Tensor(np.array([[-1.0, 0.5, 2.0, -0.25]]))
        check_grads(lambda: reduce_sum(relu(x)), {"x": x})

    def test_reductions_and_shapes(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(3, 4, 2)))
        check_grads(
            lambda: reduce_sum(transpose(reshape(reduce_mean(x, axis=1), (3, 2)), (1, 0)) * 1.7),
            {"x": x},
        )

    def test_concat_grads(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(4, 6)))
        y = Tensor(rng.normal(size=(4, 3)))

        def loss():
            joined = concat([x, y], axis=-1)
            return reduce_sum(joined * joined)

        check_grads(loss, {"x": x, "y": y})

    def test_layer_norm_forward_matches_mean_var_formula(self):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(2, 5, 7)) * 3.0 + 1.0
        gain, bias = rng.normal(size=7), rng.normal(size=7)
        got = layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
        # the straightforward evaluation, bit for bit
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        np.testing.assert_array_equal(got, (x - x.mean(axis=-1, keepdims=True)) * inv * gain + bias)
        assert_allclose(got, layer_norm_oracle(x, gain, bias), rtol=1e-12, atol=1e-12)

    def test_layer_norm_grads(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(5, 6)))
        gain = Tensor(rng.normal(size=6) + 1.0)
        bias = Tensor(rng.normal(size=6))
        check_grads(
            lambda: reduce_sum(sin(layer_norm(x, gain, bias))),
            {"x": x, "gain": gain, "bias": bias},
            tol=5e-4,
        )

    def test_causal_conv_grads(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(5, 3)))
        kernel = Tensor(rng.normal(size=(2, 3, 4)) * 0.3)
        bias = Tensor(rng.normal(size=4) * 0.1)
        check_grads(
            lambda: reduce_sum(sin(causal_conv1d(x, kernel, bias))),
            {"x": x, "kernel": kernel, "bias": bias},
        )

    def test_bce_grads(self):
        rng = np.random.default_rng(19)
        logits = Tensor(rng.normal(size=(6,)))
        y = (rng.random(6) > 0.5).astype(float)
        check_grads(lambda: bce_with_logits(logits, y), {"logits": logits})
        check_grads(lambda: bce_with_logits(logits, y, pos_weight=2.5), {"logits": logits})

    def test_reused_tensor_accumulates(self):
        x = Tensor(np.array([2.0, 3.0]))
        with Tape() as tape:
            y = reduce_sum(x * x + x)
            tape.backward(y)
        assert_allclose(tape.grad(x), 2 * x.data + 1)

    def test_add_hands_each_input_its_own_gradient_buffer(self):
        a = Tensor(np.array([1.0, 2.0]))
        b = Tensor(np.array([5.0, 7.0]))
        w = np.array([0.5, -2.0])
        with Tape() as tape:
            tripled = a * 3.0  # swept after the add below, so it accumulates into a's buffer
            tape.backward(reduce_sum((a + b) * w + tripled))
        assert_allclose(tape.grad(a), w + 3.0)
        assert_allclose(tape.grad(b), w)

    def test_backward_adds_into_given_arrays(self):
        x = Tensor(np.array([1.0, 2.0]))
        w = Tensor(np.array([3.0]))
        acc = np.array([10.0, 20.0])
        with Tape() as tape:
            tape.backward(reduce_sum(x * w * 2.0), into={x: acc})
        assert tape.grad(x) is acc
        assert_allclose(acc, [16.0, 26.0])
        assert_allclose(tape.grad(w), [6.0])

    @pytest.mark.parametrize("into", [False, True])
    def test_parameter_read_by_two_ops_gets_both_gradients(self, into):
        w = Tensor(np.array([1.0, -2.0]))
        acc = np.array([10.0, 20.0])
        with Tape() as tape:
            loss = reduce_sum(w * 3.0 + w * 5.0)
        # both muls refer to w itself; w has no node of its own
        assert [node.inputs for node in tape.nodes if node.op == "mul"] == [(w,), (w,)]
        tape.backward(loss, into={w: acc} if into else None)
        np.testing.assert_array_equal(tape.grad(w), [18.0, 28.0] if into else [8.0, 8.0])
        assert (tape.grad(w) is acc) == into

    def test_unused_parameter_gets_zero_gradient(self):
        x = Tensor(np.array([1.0, 2.0]))
        unused = Tensor(np.array([5.0]))
        acc = np.array([7.0])
        with Tape() as tape:
            tape.backward(reduce_sum(x), into={unused: acc})
        assert_allclose(tape.grad(unused), np.zeros(1))
        assert tape.grad_or_none(unused) is None
        np.testing.assert_array_equal(acc, [7.0])  # the tape never read it, so never wrote it

    def test_fresh_tape_reuses_parameters(self):
        x = Tensor(np.array([1.0, 4.0]))
        for scale in (1.0, 2.0):
            with Tape() as tape:
                tape.backward(reduce_sum(x * scale))
            assert_allclose(tape.grad(x), scale * np.ones(2))

    def test_ops_outside_tape_are_untracked(self):
        x = Tensor(np.array([1.0]))
        y = x * 3.0
        assert y._tape is None and y._node is None

    def test_backward_rejects_vector_loss(self):
        x = Tensor(np.array([1.0, 2.0]))
        with Tape() as tape:
            y = x * 2.0
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_freeing_backward_keeps_leaf_gradients_bit_identical(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 4)))
        gain, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
        b = Tensor(rng.normal(size=4))

        def build():
            h = layer_norm(linear(x, w, b) + x, gain, bias)
            return h, reduce_sum(sigmoid(h) * h + h)

        # reference: the same reverse sweep, keeping every gradient and closure
        leaves = (x, w, b, gain, bias)
        with Tape() as ref:
            _, loss = build()
        grads = {loss._node: np.ones_like(loss.data)}  # by node id, and by the leaf itself
        for node_id in range(loss._node, -1, -1):
            if node_id not in grads:
                continue
            node = ref.nodes[node_id]
            for r, ig in zip(node.inputs, node.backward(grads[node_id])):
                grads[r] = grads[r] + ig if r in grads else ig.copy()

        with Tape() as tape:
            hidden, loss = build()
            tape.backward(loss)
        for leaf in leaves:
            np.testing.assert_array_equal(tape.grad(leaf), grads[leaf])
        assert tape.grad_or_none(hidden) is None
        assert tape.grad_or_none(loss) is None
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    def test_threads_record_and_sweep_their_own_tapes(self):
        # each thread has its own parameters; the barrier makes both tapes
        # open at once and interleaves the threads' ops between them
        barrier = threading.Barrier(2, timeout=30)

        def gradients(seed: int, wait) -> dict[str, np.ndarray]:
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(5, 4))
            w, b = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=3))
            gain, bias = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=3))
            with Tape() as tape:
                wait()
                h = relu(linear(x, w, b))
                wait()
                h = layer_norm(h, gain, bias)
                wait()
                loss = reduce_sum(sigmoid(h) * h)
                wait()
                tape.backward(loss)
                wait()
            return {name: tape.grad(t) for name, t in (("w", w), ("b", b), ("gain", gain), ("bias", bias))}

        sequential = [gradients(seed, lambda: None) for seed in (31, 32)]
        results: dict[int, dict] = {}
        errors: list[BaseException] = []

        def run(i: int, seed: int) -> None:
            try:
                results[i] = gradients(seed, barrier.wait)
            except Exception as e:  # re-raised below, in the test's thread
                errors.append(e)
                barrier.abort()

        threads = [threading.Thread(target=run, args=(i, seed)) for i, seed in enumerate((31, 32))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]
        for i, want in enumerate(sequential):
            for name, g in want.items():
                np.testing.assert_array_equal(results[i][name], g)

    def test_threads_share_a_parameter(self):
        # both threads read the same w on their own tapes at once; each tape
        # must see every use of w it recorded, and only those
        w, b = Tensor(np.ones((1, 1))), Tensor(np.zeros(1))
        barrier = threading.Barrier(2, timeout=30)
        results, errors = [None, None], []

        def run(i: int, scale: float) -> None:
            try:
                x = np.full((4, 1), scale)
                with Tape() as tape:
                    barrier.wait()
                    h = linear(x, w, b)
                    barrier.wait()
                    loss = reduce_sum(h) + reduce_sum(linear(x, w, b))
                    barrier.wait()
                    tape.backward(loss)
                results[i] = float(tape.grad(w)[0, 0])
            except Exception as e:  # re-raised below, in the test's thread
                errors.append(e)
                barrier.abort()

        threads = [threading.Thread(target=run, args=(i, s)) for i, s in enumerate((1.0, 2.0))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]
        assert results == [8.0, 16.0]
        assert w._tape is None and w._node is None  # recording never wrote to the shared leaf

    def test_threads_sharing_parameters_under_stress(self):
        # more threads than cores, switching every microsecond: a leaf lost
        # to another thread's tape would drop a term from some gradient
        w, b = Tensor(np.ones((2, 3))), Tensor(np.zeros(3))
        errors = []

        def run(scale: float) -> None:
            try:
                x = np.full((4, 2), scale)
                for _ in range(50):
                    with Tape() as tape:
                        loss = reduce_sum(linear(x, w, b)) + reduce_sum(linear(x, w, b) * 2.0)
                        tape.backward(loss)
                    np.testing.assert_array_equal(tape.grad(w), np.full((2, 3), 12.0 * scale))
                    np.testing.assert_array_equal(tape.grad(b), np.full(3, 12.0))
            except Exception as e:  # re-raised below, in the test's thread
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(float(i + 1),)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]

    def test_composite_attention_like_block(self):
        rng = np.random.default_rng(20)
        q = Tensor(rng.normal(size=(4, 6)))
        k = Tensor(rng.normal(size=(5, 6)))
        v = Tensor(rng.normal(size=(5, 6)))
        w = Tensor(rng.normal(size=(6, 3)))
        b = Tensor(rng.normal(size=3))
        mask = np.array([True, True, False, True, True])

        def loss():
            return reduce_mean(sin(linear(attention(q, k, v, 2, mask), w, b)))

        check_grads(loss, {"q": q, "k": k, "v": v, "w": w, "b": b})


def mul_chain(a, b, c):
    return (a + b) * c + a * 0.5


class TestFlatBuffer:
    def test_buffer_views_are_consecutive_views_covering_the_buffer(self):
        buffer = np.arange(11.0)
        views = buffer_views(buffer, [(2, 3), (4,), (1,)])
        assert [v.shape for v in views] == [(2, 3), (4,), (1,)]
        assert all(v.base is buffer for v in views)
        np.testing.assert_array_equal(views[1], [6.0, 7.0, 8.0, 9.0])
        np.testing.assert_array_equal(np.concatenate([v.reshape(-1) for v in views]), np.arange(11.0))
        buffer[:] = 0.0
        assert not any(v.any() for v in views)  # views, not copies
        with pytest.raises(ShapeError, match="cover 5 values"):
            buffer_views(np.zeros(6), [(2,), (1, 3)])
        with pytest.raises(ShapeError):
            buffer_views(np.zeros(4), [(2,), (3,)])

    def test_param_init_makes_consecutive_views_of_the_buffer(self):
        buffer = np.arange(11.0)
        views = ParamInit(buffer, fill=False)
        made = [views.tensor(shape, None) for shape in [(2, 3), (4,), (1,)]]
        assert [t.shape for t in made] == [(2, 3), (4,), (1,)] and views.size == 11
        assert all(t.data.base is buffer for t in made)
        np.testing.assert_array_equal(made[1].data, [6.0, 7.0, 8.0, 9.0])  # the buffer's values, kept
        buffer[:] = 0.0
        assert not any(t.data.any() for t in made)  # views, not copies
        past = views.tensor((3,), None)  # past the end: only its shape is real
        assert past.shape == (3,) and not np.shares_memory(past.data, buffer) and views.size == 14

    def test_param_init_fills_each_view_in_order(self):
        filled = ParamInit(np.full(6, np.nan), rng=np.random.default_rng(1))
        drawn, ones = filled.normal(2.0, (2, 2)), filled.full(1.0, (2,))
        expected = np.concatenate([np.random.default_rng(1).normal(0.0, 2.0, size=4), [1.0, 1.0]])
        np.testing.assert_array_equal(filled.buffer, expected)
        assert drawn.data.base is filled.buffer and ones.data.base is filled.buffer
        standalone = ParamInit(rng=np.random.default_rng(1)).normal(2.0, (2, 2))  # an array of its own
        np.testing.assert_array_equal(standalone.data, drawn.data)
        assert standalone.data.base is None


def flat_params(values: dict) -> tuple[dict[str, Tensor], np.ndarray]:
    """Tensors holding ``values``, each a view of one new flat buffer, and that buffer."""
    buffer = np.concatenate([np.ravel(v) for v in values.values()])
    views = buffer_views(buffer, [np.shape(v) for v in values.values()])
    return {k: Tensor(v) for k, v in zip(values, views)}, buffer


def grad_views(params: dict[str, Tensor], state: AdamState) -> dict[str, np.ndarray]:
    """Name -> view of the parameter's slice of ``state.grad_buffer``."""
    return dict(zip(params, buffer_views(state.grad_buffer, [t.shape for t in params.values()])))


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        p, buffer = flat_params({"w": np.zeros(3)})
        state = adam_init(buffer, lr=0.01)
        grad_views(p, state)["w"][...] = [1.0, -2.0, 0.5]
        adam_step(p, state)
        # bias correction makes the very first update +-lr per element
        assert_allclose(np.abs(p["w"].data), 0.01, rtol=1e-6)

    def test_converges_on_quadratic(self):
        p, buffer = flat_params({"w": np.array([5.0, -3.0])})
        state = adam_init(buffer, lr=0.1)
        grads = grad_views(p, state)
        for _ in range(500):
            grads["w"][...] = 2.0 * p["w"].data
            adam_step(p, state)
        assert_allclose(p["w"].data, 0.0, atol=1e-3)

    def test_missing_gradient_treated_as_zero(self):
        p, buffer = flat_params({"w": np.array([1.0]), "u": np.array([1.0])})
        state = adam_init(buffer)
        grad_views(p, state)["w"][...] = 1.0
        adam_step(p, state)
        assert_allclose(p["u"].data, 1.0)

    def test_flat_moments_match_eager_reference(self):
        """Moments are flat buffers over every parameter, zero at the first
        step; the parameters after N steps equal an update that holds zero
        moments for every parameter, with the gradients written into the
        state's gradient views. "big" spans more than one chunk."""
        rng = np.random.default_rng(28)
        init = {
            "a": rng.normal(size=(3, 4)),
            "big": rng.normal(size=(200, 200)),
            "b": rng.normal(size=5),
            "never": rng.normal(size=(2, 2)),
        }
        steps = [
            {
                "a": rng.normal(size=(3, 4)),
                "big": rng.normal(size=(200, 200)),
                **({"b": rng.normal(size=5)} if i in (1, 2) else {}),
            }
            for i in range(6)
        ]  # "b" first gets a gradient at step 2, then has none from step 4 and keeps decaying

        ref = {k: v.copy() for k, v in init.items()}
        m = {k: np.zeros_like(v) for k, v in init.items()}
        v2 = {k: np.zeros_like(v) for k, v in init.items()}
        lr, b1, b2, eps = 1e-2, T.ADAM_BETA1, T.ADAM_BETA2, T.ADAM_EPS
        for t, grads in enumerate(steps, start=1):
            for k in ref:
                g = grads.get(k, np.zeros_like(ref[k]))
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v2[k] = b2 * v2[k] + (1.0 - b2) * (g * g)
                ref[k] = ref[k] - lr * (m[k] / (1.0 - b1**t)) / (np.sqrt(v2[k] / (1.0 - b2**t)) + eps)

        size = sum(v.size for v in init.values())
        params, buffer = flat_params(init)
        state = adam_init(buffer, lr=lr)
        assert state.param_buffer is buffer  # used as it is, not copied
        assert state.first_moment is None and state.second_moment is None  # no step yet
        views = grad_views(params, state)
        for grads in steps:
            state.grad_buffer.fill(0.0)
            for k, g in grads.items():
                views[k][...] = g
            adam_step(params, state)
        for k in init:
            np.testing.assert_array_equal(params[k].data, ref[k])
        np.testing.assert_array_equal(params["never"].data, init["never"])
        assert state.first_moment.shape == state.second_moment.shape == (size,)
        assert not state.first_moment[-4:].any() and not state.second_moment[-4:].any()
        assert all(p.data.base is state.param_buffer for p in params.values())

    def test_state_defaults(self):
        state = adam_init(np.zeros(0))
        assert state.lr == 4e-4
        assert (T.ADAM_BETA1, T.ADAM_BETA2, T.ADAM_EPS) == (0.9, 0.999, 1e-8)
