"""Episode schema, ingestion, normalization, text hashing, and the generator."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mmists.data import (
    DataError,
    Episode,
    GenConfig,
    NoteEvent,
    NormalizationStats,
    TaskSchema,
    TsObservation,
    embed_notes,
    generate_synthetic,
    generate_synthetic_with_trace,
    group_by_feature,
    load_episodes,
    normalize,
    note_matrix,
    save_episodes,
    stats_from_record,
    stats_record,
    toy_text_encode,
    truncate_notes,
)
from oracles import decode_note_bit, decode_ts_bit

SCHEMA = TaskSchema(n_features=2, n_classes=1)


def write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def make_record(**overrides):
    rec = {
        "id": "e1",
        "ts": [{"f": 0, "t": 1.0, "v": 3.5}, {"f": 1, "t": 0.5, "v": -2.0}],
        "notes": [{"t": 2.0, "text": "stable overnight"}],
        "y": [1],
    }
    rec.update(overrides)
    return rec


def bits(values) -> bytes:
    """The float64 bytes of ``values``: equal only if every value is the same
    double, so -0.0 differs from 0.0."""
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def any_episode(draw):
    """An episode the loader accepts under 3 features, 2 classes and width-3
    embeddings: any finite values and times >= 0 (including -0.0 and
    subnormals), unicode ids and text, and notes time-sorted with ties."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    times = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.5]), st.floats(min_value=0.0, allow_infinity=False))
    obs = st.builds(TsObservation, st.integers(0, 2), times, finite)
    text_note = st.builds(lambda t, s: NoteEvent(t, text=s), times, st.text(max_size=12))
    emb_note = st.builds(
        lambda t, e: NoteEvent(t, embedding=np.array(e)), times, st.lists(finite, min_size=3, max_size=3)
    )
    notes = draw(st.lists(st.one_of(text_note, emb_note), min_size=1, max_size=4))
    return Episode(
        draw(st.text(max_size=12)),
        tuple(draw(st.lists(obs, max_size=6))),
        tuple(sorted(notes, key=lambda n: n.time)),  # stable: tied times keep their order
        np.array(draw(st.lists(st.integers(0, 1), min_size=2, max_size=2))),
    )


class TestLoad:
    def test_empty_file_gives_empty_list(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("", encoding="utf-8")
        assert load_episodes(p, SCHEMA) == []

    def test_notes_come_back_time_sorted(self, tmp_path):
        p = tmp_path / "d.jsonl"
        notes = [{"t": 5.0, "text": "late"}, {"t": 1.0, "text": "early"}]
        write_lines(p, [make_record(notes=notes)])
        (ep,) = load_episodes(p, SCHEMA)
        assert [n.time for n in ep.notes] == [1.0, 5.0]
        assert ep.notes[0].text == "early"

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        eps = generate_synthetic(GenConfig(n_episodes=5, n_features=3, text_dim=8, seed=9))
        p = tmp_path / "d.jsonl"
        save_episodes(p, eps)
        back = load_episodes(p, TaskSchema(n_features=3, n_classes=1, text_dim=8))
        assert len(back) == len(eps)
        for a, b in zip(eps, back):
            assert a.episode_id == b.episode_id
            assert a.observations == b.observations
            assert_array_equal(a.label, b.label)
            for na, nb in zip(a.notes, b.notes):
                assert na.time == nb.time
                assert_array_equal(na.embedding, nb.embedding)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(any_episode(), max_size=4, unique_by=lambda ep: ep.episode_id))
    @example(
        [
            Episode(
                "a\u2028b",
                (TsObservation(0, -0.0, -0.0), TsObservation(2, 5e-324, 1.7976931348623157e308)),
                (NoteEvent(0.0, text=""), NoteEvent(0.0, embedding=np.array([5e-324, -0.0, 1e308]))),
                np.array([1, 0]),
            )
        ]
    )
    def test_any_episodes_round_trip_bit_for_bit(self, episodes):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "d.jsonl"
            save_episodes(path, episodes)
            back = load_episodes(path, TaskSchema(n_features=3, n_classes=2, text_dim=3))
        assert len(back) == len(episodes)
        for a, b in zip(episodes, back):
            assert b.episode_id == a.episode_id
            assert [o.feature_index for o in b.observations] == [o.feature_index for o in a.observations]
            pairs = [(o.time, o.value) for o in a.observations]
            assert bits([(o.time, o.value) for o in b.observations]) == bits(pairs)
            assert bits([n.time for n in b.notes]) == bits([n.time for n in a.notes])
            assert [n.text for n in b.notes] == [n.text for n in a.notes]
            for na, nb in zip(a.notes, b.notes):
                assert (nb.embedding is None) == (na.embedding is None)
                if na.embedding is not None:
                    assert bits(nb.embedding) == bits(na.embedding)
            assert b.label.tolist() == a.label.tolist()

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps(make_record()) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_episodes(p, SCHEMA)

    def test_label_length_mismatch_reports_field(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [make_record(y=[1, 0])])
        with pytest.raises(DataError, match="'y'"):
            load_episodes(p, SCHEMA)

    def test_feature_index_out_of_range(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [make_record(ts=[{"f": 7, "t": 1.0, "v": 0.0}])])
        with pytest.raises(DataError, match="feature index 7"):
            load_episodes(p, SCHEMA)

    def test_non_integral_feature_index_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [make_record(ts=[{"f": 1.7, "t": 1.0, "v": 0.0}])])
        with pytest.raises(DataError, match="not an integer"):
            load_episodes(p, SCHEMA)
        write_lines(p, [make_record(ts=[{"f": 10**400, "t": 1.0, "v": 0.0}])])
        with pytest.raises(DataError, match="'ts'"):
            load_episodes(p, SCHEMA)
        write_lines(p, [make_record(ts=[{"f": 1.0, "t": 1.0, "v": 0.0}])])
        assert load_episodes(p, SCHEMA)[0].observations[0].feature_index == 1

    def test_note_free_episode_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [make_record(notes=[])])
        with pytest.raises(DataError, match="no notes"):
            load_episodes(p, SCHEMA)

    def test_note_with_both_payloads_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [make_record(notes=[{"t": 1.0, "text": "x", "emb": [0.0] * 4}])])
        with pytest.raises(DataError, match="exactly one"):
            load_episodes(p, SCHEMA)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"ts": 5}, "ts"),
            ({"ts": {"f": 0, "t": 1.0, "v": 0.0}}, "ts"),
            ({"notes": None}, "notes"),
            ({"notes": [{"t": 1.0, "emb": "abc"}]}, "notes"),
            ({"notes": [{"t": 1.0, "emb": ["x", 0.0, 0.0, 0.0]}]}, "notes"),
            ({"notes": [{"t": 1.0, "emb": [[0.0, 0.0], [0.0]]}]}, "notes"),
        ],
    )
    def test_malformed_field_is_a_data_error(self, tmp_path, overrides, field):
        p = tmp_path / "d.jsonl"
        write_lines(p, [make_record(**overrides)])
        with pytest.raises(DataError, match=f"line 1: field '{field}'"):
            load_episodes(p, TaskSchema(n_features=2, n_classes=1, text_dim=4))

    @pytest.mark.parametrize(
        "overrides, field, why",
        [
            ({"ts": [{"f": 0, "t": 1.0, "v": 0.0}, {"f": 0, "t": float("nan"), "v": 0.0}]}, "ts", "time"),
            ({"ts": [{"f": 0, "t": 1.0, "v": 0.0}, {"f": 0, "t": float("inf"), "v": 0.0}]}, "ts", "time"),
            ({"ts": [{"f": 0, "t": 1.0, "v": 0.0}, {"f": 0, "t": -1, "v": 0.0}]}, "ts", "time"),
            ({"ts": [{"f": 0, "t": 1.0, "v": 0.0}, {"f": 0, "t": 1.0, "v": float("nan")}]}, "ts", "non-finite value"),
            ({"notes": [{"t": 1.0, "text": "x"}, {"t": float("-inf"), "text": "y"}]}, "notes", "time"),
            ({"notes": [{"t": 1.0, "text": "x"}, {"t": 1.0, "emb": [0.0, float("nan"), 0.0, 0.0]}]}, "notes",
             "non-finite embedding"),
        ],
        ids=["ts-time-nan", "ts-time-inf", "ts-time-negative", "ts-value-nan", "note-time-neg-inf", "emb-nan"],
    )
    def test_non_finite_or_negative_numbers_rejected(self, tmp_path, overrides, field, why):
        """NaN and Infinity (which JSON text can carry) and negative times are
        rejected, naming the field and the entry."""
        p = tmp_path / "d.jsonl"
        write_lines(p, [make_record(**overrides)])
        with pytest.raises(DataError, match=f"line 1: field '{field}': entry 1: {why}"):
            load_episodes(p, TaskSchema(n_features=2, n_classes=1, text_dim=4))

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"notes": [{"t": 1.0, "text": None}]}, "notes"),
            ({"notes": [{"t": 1.0, "text": {"k": 1}}]}, "notes"),
            ({"notes": [{"t": 1.0, "text": 7}]}, "notes"),
            ({"ts": [{"f": True, "t": 1.0, "v": 0.0}]}, "ts"),
            ({"ts": [{"f": 0, "t": False, "v": 0.0}]}, "ts"),
            ({"ts": [{"f": 0, "t": 1.0, "v": True}]}, "ts"),
            ({"ts": [{"f": 0, "t": "1.0", "v": 0.0}]}, "ts"),
            ({"notes": [{"t": True, "text": "x"}]}, "notes"),
            ({"notes": [{"t": 1.0, "emb": [True, 0.0, 0.0, 0.0]}]}, "notes"),
            ({"notes": [{"t": 1.0, "emb": ["1.5", 0.0, 0.0, 0.0]}]}, "notes"),
            ({"y": [True]}, "y"),
        ],
    )
    def test_booleans_strings_and_non_string_text_rejected(self, tmp_path, overrides, field):
        """JSON true/false are not numbers, a quoted number is not one either,
        and note text must be a string: none is coerced."""
        p = tmp_path / "d.jsonl"
        write_lines(p, [make_record(id="e0"), make_record(**overrides)])
        with pytest.raises(DataError, match=f"line 2: field '{field}'"):
            load_episodes(p, TaskSchema(n_features=2, n_classes=1, text_dim=4))

    def test_bytes_that_are_not_utf8_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_bytes(json.dumps(make_record()).encode() + b"\n\xff\xfe{}\n")
        with pytest.raises(DataError, match="line 2: not UTF-8"):
            load_episodes(p, SCHEMA)

    def test_record_that_is_not_an_object_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1: expected a JSON object"):
            load_episodes(p, SCHEMA)

    @pytest.mark.parametrize("bad_id", [5, 1.5, None, True, ["e1"], {"id": "e1"}])
    def test_non_string_id_rejected(self, tmp_path, bad_id):
        p = tmp_path / "d.jsonl"
        write_lines(p, [make_record(id="e0"), make_record(id=bad_id)])
        with pytest.raises(DataError, match="line 2: field 'id': expected a string"):
            load_episodes(p, SCHEMA)

    def test_duplicate_id_rejected_with_both_lines(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [make_record(id="a"), make_record(id="b"), make_record(id="a")])
        with pytest.raises(DataError, match=r"line 3: field 'id': duplicate id 'a' \(first on line 1\)"):
            load_episodes(p, SCHEMA)

    def test_ids_differing_only_in_case_or_space_are_distinct(self, tmp_path):
        p = tmp_path / "d.jsonl"
        ids = ["a", "A", "a ", ""]
        write_lines(p, [make_record(id=i) for i in ids])
        assert [ep.episode_id for ep in load_episodes(p, SCHEMA)] == ids

    def test_embedding_width_checked_against_schema(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [make_record(notes=[{"t": 1.0, "emb": [0.0] * 4}])])
        with pytest.raises(DataError, match="emb length 4"):
            load_episodes(p, TaskSchema(n_features=2, n_classes=1, text_dim=8))


def episode_with(values_by_feature: dict, alpha_hours: float = 10.0, label=(0,)):
    obs = tuple(
        TsObservation(f, t, v) for f, pairs in values_by_feature.items() for t, v in pairs
    )
    return Episode("e", obs, (NoteEvent(1.0, text="n"),), np.asarray(label))


def loaded_episodes():
    """Episodes as the loader accepts them: finite values, times >= 0, at least one note."""
    times = st.floats(min_value=0.0, allow_infinity=False)
    obs = st.builds(TsObservation, st.integers(0, 1), times, st.floats(allow_nan=False, allow_infinity=False))
    notes = st.lists(times.map(lambda t: NoteEvent(t, text="n")), min_size=1, max_size=3)
    return st.builds(
        lambda o, n: Episode("e", tuple(o), tuple(n), np.array([0])), st.lists(obs, max_size=8), notes
    )


class TestNormalize:
    def test_midrange_value_maps_to_half(self):
        ep = episode_with({0: [(1.0, 0.0), (2.0, 10.0), (3.0, 5.0)]})
        (out,), stats = normalize([ep], alpha_hours=10.0)
        assert out.observations[2].value == 0.5
        assert stats.feature_min[0] == 0.0 and stats.feature_max[0] == 10.0

    def test_time_rescaled_by_window(self):
        ep = episode_with({0: [(24.0, 1.0)]}, alpha_hours=48.0)
        (out,), _ = normalize([ep], alpha_hours=48.0)
        assert out.observations[0].time == 0.5

    def test_values_above_train_max_clip_to_one(self):
        train = episode_with({0: [(1.0, 0.0), (2.0, 10.0)]})
        _, stats = normalize([train], alpha_hours=10.0)
        test = episode_with({0: [(1.0, 12.0)]})
        (out,), _ = normalize([test], stats=stats)
        assert out.observations[0].value == 1.0

    def test_constant_feature_maps_to_half(self):
        ep = episode_with({0: [(1.0, 4.0), (2.0, 4.0)]})
        (out,), stats = normalize([ep], alpha_hours=10.0)
        assert {o.value for o in out.observations} == {0.5}
        assert stats.global_mean[0] == 0.5

    def test_all_outputs_in_unit_box(self):
        eps = generate_synthetic(GenConfig(n_episodes=30, seed=3))
        train, rest = eps[:20], eps[20:]
        ntrain, stats = normalize(train, alpha_hours=24.0)
        nrest, _ = normalize(rest, stats=stats)
        for ep in ntrain + nrest:
            for o in ep.observations:
                assert 0.0 <= o.value <= 1.0
                assert 0.0 <= o.time < 1.0
            for n in ep.notes:
                assert 0.0 <= n.time <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        train=st.lists(loaded_episodes(), min_size=1, max_size=4),
        other=st.lists(loaded_episodes(), max_size=4),
        alpha_hours=st.floats(1e-3, 1e3),
    )
    @example(  # a value far below a training range near the float64 limit
        train=[episode_with({0: [(1.0, 1e308), (2.0, 1.5e308)]})],
        other=[episode_with({0: [(1.0, -1.7e308)]})],
        alpha_hours=10.0,
    )
    def test_any_loadable_episodes_normalize_inside_the_unit_box(self, train, other, alpha_hours):
        """Fresh stats and stats from another split both keep every value in
        [0, 1], every observation time in [0, 1) and every note time in
        [0, 1], or the training range overflows float64 and is a DataError."""
        try:
            ntrain, stats = normalize(train, alpha_hours=alpha_hours, n_features=2)
        except DataError as e:
            assert "max - min inf" in str(e)
            return
        nother, _ = normalize(other, stats=stats)
        for ep in ntrain + nother:
            for o in ep.observations:
                assert 0.0 <= o.value <= 1.0
                assert 0.0 <= o.time < 1.0
            for n in ep.notes:
                assert 0.0 <= n.time <= 1.0

    def test_stats_follow_training_split_not_input(self):
        train = episode_with({0: [(1.0, 0.0), (2.0, 10.0)]})
        _, stats = normalize([train], alpha_hours=10.0)
        val = episode_with({0: [(1.0, 100.0)]})
        _, stats_val = normalize([val], alpha_hours=10.0)
        assert stats_val.feature_max[0] != stats.feature_max[0]
        (out,), _ = normalize([val], stats=stats)
        assert out.observations[0].value == 1.0

    def test_observations_past_window_dropped(self):
        ep = episode_with({0: [(9.0, 1.0), (10.0, 2.0), (11.0, 3.0)]})
        (out,), _ = normalize([ep], alpha_hours=10.0)
        assert len(out.observations) == 1
        assert out.observations[0].time == 0.9

    def test_global_mean_uses_rescaled_values(self):
        ep = episode_with({0: [(1.0, 0.0), (2.0, 10.0), (3.0, 10.0)]})
        _, stats = normalize([ep], alpha_hours=10.0)
        assert stats.global_mean[0] == pytest.approx(2.0 / 3.0)

    def test_stats_record_round_trips_through_json(self):
        stats = NormalizationStats(
            feature_min=np.array([0.0, -1.5]),
            feature_max=np.array([2.0, 3.25]),
            global_mean=np.array([0.5, 0.125]),
            alpha_hours=48.0,
        )
        back = stats_from_record(json.loads(json.dumps(stats_record(stats))))
        assert_array_equal(back.feature_min, stats.feature_min)
        assert_array_equal(back.feature_max, stats.feature_max)
        assert_array_equal(back.global_mean, stats.global_mean)
        assert back.alpha_hours == 48.0


class TestTruncateNotes:
    def make(self, times):
        notes = tuple(NoteEvent(t, text=f"n{i}") for i, t in enumerate(times))
        return Episode("e", (), notes, np.array([0]))

    def test_keeps_latest_five_in_order(self):
        ep = self.make([3.0, 1.0, 6.0, 2.0, 5.0, 4.0, 7.0])
        out = truncate_notes(ep, 5)
        assert [n.time for n in out.notes] == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_short_list_unchanged(self):
        ep = self.make([1.0, 2.0, 3.0])
        assert truncate_notes(ep, 5).notes == truncate_notes(ep, 3).notes

    def test_tie_at_boundary_keeps_later_position(self):
        ep = self.make([2.0, 2.0, 1.0])
        out = truncate_notes(ep, 1)
        assert out.notes[0].text == "n1"

    def test_result_is_suffix_of_sorted_list(self):
        rng = np.random.default_rng(5)
        times = rng.integers(0, 4, size=9).astype(float).tolist()
        ep = self.make(times)
        full = truncate_notes(ep, 9).notes
        for k in range(1, 10):
            assert truncate_notes(ep, k).notes == full[-k:]


class TestToyTextEncode:
    def test_empty_text_is_zero(self):
        assert_array_equal(toy_text_encode("", 8), np.zeros(8))

    def test_deterministic(self):
        a = toy_text_encode("chest pain resolved", 16, seed=3)
        b = toy_text_encode("chest pain resolved", 16, seed=3)
        assert_array_equal(a, b)
        c = toy_text_encode("chest pain resolved", 16, seed=4)
        assert not np.array_equal(a, c)

    def test_repeated_token_doubles_bucket_weight(self):
        d_t = 64
        va = toy_text_encode("a", d_t)
        vb = toy_text_encode("b", d_t)
        assert not np.array_equal(va, vb)  # distinct buckets for this width/seed
        v = toy_text_encode("a a b", d_t)
        assert_allclose(v, (2 * va + vb) / np.sqrt(5.0))

    def test_output_is_unit_norm(self):
        v = toy_text_encode("one two three two", 32)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_case_insensitive(self):
        assert_array_equal(toy_text_encode("Fever", 16), toy_text_encode("fever", 16))

    def test_narrow_width_rejected(self):
        with pytest.raises(DataError):
            toy_text_encode("x", 4)

    def test_embed_notes_fills_text_payloads(self):
        ep = Episode(
            "e",
            (),
            (NoteEvent(1.0, text="hi"), NoteEvent(2.0, embedding=np.ones(8))),
            np.array([0]),
        )
        out = embed_notes(ep, 8, seed=1)
        assert out.notes[0].embedding is not None
        assert_array_equal(out.notes[1].embedding, np.ones(8))
        times, embs = note_matrix(out)
        assert embs.shape == (2, 8)


class TestGrouping:
    def test_groups_sorted_by_time_with_stable_ties(self):
        obs = (
            TsObservation(0, 0.5, 1.0),
            TsObservation(1, 0.1, 9.0),
            TsObservation(0, 0.2, 2.0),
            TsObservation(0, 0.2, 3.0),
        )
        ep = Episode("e", obs, (NoteEvent(0.0, text="n"),), np.array([0]))
        groups = group_by_feature(ep, 3)
        assert_allclose(groups[0][0], [0.2, 0.2, 0.5])
        assert_allclose(groups[0][1], [2.0, 3.0, 1.0])
        assert_allclose(groups[1][1], [9.0])
        assert groups[2][0].size == 0


class TestGenerator:
    def test_same_seed_bit_identical(self):
        a = generate_synthetic(GenConfig(n_episodes=4, seed=11))
        b = generate_synthetic(GenConfig(n_episodes=4, seed=11))
        for ea, eb in zip(a, b):
            assert ea.observations == eb.observations
            assert_array_equal(ea.label, eb.label)
            for na, nb in zip(ea.notes, eb.notes):
                assert_array_equal(na.embedding, nb.embedding)

    def test_different_seeds_differ(self):
        a = generate_synthetic(GenConfig(n_episodes=4, seed=11))
        b = generate_synthetic(GenConfig(n_episodes=4, seed=12))
        assert a[0].observations != b[0].observations

    def test_every_episode_has_a_note(self):
        for ep in generate_synthetic(GenConfig(n_episodes=50, seed=2)):
            assert len(ep.notes) >= 1

    def test_ts_only_label_matches_generator_rule(self):
        eps, trace = generate_synthetic_with_trace(GenConfig(n_episodes=200, seed=7))
        for ep, row in zip(eps, trace["episodes"]):
            assert ep.label[0] == int(row["stat"] > 0.0)

    def test_xor_label_composition(self):
        eps, trace = generate_synthetic_with_trace(
            GenConfig(n_episodes=200, task="xor_fusion", seed=8)
        )
        for ep, row in zip(eps, trace["episodes"]):
            assert ep.label[0] == row["ts_bit"] ^ row["note_bit"]

    def test_invalid_config_rejected(self):
        with pytest.raises(DataError):
            GenConfig(n_episodes=0)
        with pytest.raises(DataError):
            GenConfig(n_episodes=1, sparsity=0.0)
        with pytest.raises(DataError):
            GenConfig(n_episodes=1, task="nope")

    def test_label_bits_are_roughly_balanced(self):
        eps, trace = generate_synthetic_with_trace(
            GenConfig(n_episodes=2000, task="xor_fusion", seed=13)
        )
        ts_rate = np.mean([r["ts_bit"] for r in trace["episodes"]])
        note_rate = np.mean([r["note_bit"] for r in trace["episodes"]])
        assert 0.45 < ts_rate < 0.55
        assert 0.45 < note_rate < 0.55


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic_with_trace(GenConfig(n_episodes=5000, task="xor_fusion", seed=99))


class TestXorBayesOracle:
    """Monte-Carlo decodability of the xor task from generator internals."""

    def test_single_modality_accuracy_is_chance(self, dataset):
        eps, trace = dataset
        cfg = trace["config"]
        ts_hits = note_hits = 0
        for ep in eps:
            ts_hits += int(decode_ts_bit(ep, cfg.alpha_hours) == ep.label[0])
            note_hits += int(decode_note_bit(ep, trace["direction"]) == ep.label[0])
        assert abs(ts_hits / len(eps) - 0.5) < 0.03
        assert abs(note_hits / len(eps) - 0.5) < 0.03

    def test_joint_accuracy_exceeds_095(self, dataset):
        eps, trace = dataset
        cfg = trace["config"]
        hits = 0
        for ep in eps:
            pred = decode_ts_bit(ep, cfg.alpha_hours) ^ decode_note_bit(ep, trace["direction"])
            hits += int(pred == ep.label[0])
        assert hits / len(eps) >= 0.95
