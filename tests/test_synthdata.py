"""Synthetic domain pairs: determinism, geometry, mode restrictions, CSV."""

import json

import numpy as np
import pytest

from mcsda.synthdata import (
    DomainPair,
    blob_means,
    gen_gauss_blobs,
    gen_rotated_moons,
    make_openset,
    make_partial,
    manifest_path,
    read_csv,
    write_csv,
)
from mcsda.divergence import SampleSet


class TestMoons:
    def test_seed_determinism(self):
        a = gen_rotated_moons(60, 40, 30.0, seed=5)
        b = gen_rotated_moons(60, 40, 30.0, seed=5)
        assert np.array_equal(a.source.points, b.source.points)
        assert np.array_equal(a.target.points, b.target.points)
        assert np.array_equal(a.source.labels, b.source.labels)
        c = gen_rotated_moons(60, 40, 30.0, seed=6)
        assert not np.array_equal(a.source.points, c.source.points)

    def test_target_is_fresh_draw(self):
        pair = gen_rotated_moons(50, 50, 0.0, seed=1)
        assert not np.array_equal(pair.source.points, pair.target.points)

    def test_rotation_applied_to_target_only(self):
        base = gen_rotated_moons(40, 40, 0.0, seed=2)
        rot = gen_rotated_moons(40, 40, 90.0, seed=2)
        assert np.array_equal(base.source.points, rot.source.points)
        r = np.array([[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(rot.target.points, base.target.points @ r.T, atol=1e-12)

    def test_noiseless_points_sit_on_arcs(self):
        pair = gen_rotated_moons(200, 10, 0.0, noise_sd=0.0, seed=3)
        pts, lab = pair.source.points, pair.source.labels
        outer = pts[lab == 1] + [0.5, 0.25]
        np.testing.assert_allclose(np.linalg.norm(outer, axis=1), 1.0, atol=1e-12)
        inner = pts[lab == 2] - [0.5, 0.25]
        np.testing.assert_allclose(np.linalg.norm(inner, axis=1), 1.0, atol=1e-12)

    def test_class_balance_odd_n(self):
        pair = gen_rotated_moons(101, 10, 0.0, seed=0)
        counts = np.bincount(pair.source.labels, minlength=3)
        assert counts[1] == 51 and counts[2] == 50

    def test_meta_and_mode(self):
        pair = gen_rotated_moons(20, 30, 15.0, noise_sd=0.2, seed=9)
        assert pair.mode == "closed"
        assert pair.k == 2 and pair.k_shared == 2
        assert pair.meta["params"]["angle_deg"] == 15.0
        assert pair.target.labels is None
        assert pair.eval_target_labels().shape == (30,)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_rotated_moons(1, 10, 0.0)
        with pytest.raises(ValueError):
            gen_rotated_moons(10, 10, 0.0, noise_sd=-0.1)


class TestBlobs:
    def test_blob_means_square(self):
        m = blob_means(4, radius=4.0)
        np.testing.assert_allclose(
            m, [[4.0, 0.0], [0.0, 4.0], [-4.0, 0.0], [0.0, -4.0]], atol=1e-12
        )

    def test_class_means_within_3_sigma(self):
        n = 500
        pair = gen_gauss_blobs(3, n, (1.0, 0.5), seed=4, std=1.0)
        tol = 3.0 / np.sqrt(n)
        means = blob_means(3)
        lab_s = pair.source.labels
        lab_t = pair.eval_target_labels()
        for c in (1, 2, 3):
            src_mean = pair.source.points[lab_s == c].mean(axis=0)
            assert np.linalg.norm(src_mean - means[c - 1]) < 2 * tol
            tgt_mean = pair.target.points[lab_t == c].mean(axis=0)
            assert np.linalg.norm(tgt_mean - (means[c - 1] + [1.0, 0.5])) < 2 * tol

    def test_exact_per_class_counts(self):
        pair = gen_gauss_blobs(5, 17, (0.0, 0.0), seed=1)
        counts = np.bincount(pair.source.labels, minlength=6)[1:]
        assert list(counts) == [17] * 5
        counts_t = np.bincount(pair.eval_target_labels(), minlength=6)[1:]
        assert list(counts_t) == [17] * 5

    def test_determinism(self):
        a = gen_gauss_blobs(3, 20, (1.0, 0.0), seed=7)
        b = gen_gauss_blobs(3, 20, (1.0, 0.0), seed=7)
        assert np.array_equal(a.target.points, b.target.points)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_gauss_blobs(1, 10, (0.0, 0.0))
        with pytest.raises(ValueError):
            gen_gauss_blobs(3, 0, (0.0, 0.0))
        with pytest.raises(ValueError):
            gen_gauss_blobs(3, 10, (0.0, 0.0, 1.0))


class TestPartial:
    def test_target_restricted_source_untouched(self):
        base = gen_gauss_blobs(4, 30, (1.0, 0.5), seed=0)
        part = make_partial(base, [1, 3])
        assert part.mode == "partial"
        assert part.k == 4 and part.k_shared == 2
        assert part.source is base.source
        hidden = part.eval_target_labels()
        assert set(hidden.tolist()) == {1, 3}
        base_hidden = base.eval_target_labels()
        assert part.target.n == int(np.isin(base_hidden, [1, 3]).sum())
        assert part.meta["params"]["kept_classes"] == [1, 3]

    def test_point_identity_after_restriction(self):
        base = gen_gauss_blobs(3, 10, (0.5, 0.0), seed=2)
        part = make_partial(base, [2])
        mask = base.eval_target_labels() == 2
        assert np.array_equal(part.target.points, base.target.points[mask])

    def test_validation(self):
        base = gen_gauss_blobs(3, 10, (0.0, 0.0), seed=0)
        with pytest.raises(ValueError):
            make_partial(base, [])
        with pytest.raises(ValueError):
            make_partial(base, [1, 2, 3])
        with pytest.raises(ValueError):
            make_partial(base, [0, 1])
        stripped = make_partial(base, [1, 2])
        with pytest.raises(ValueError):
            make_partial(stripped, [3])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [1.5, np.nan, np.inf, "x"])
    def test_class_ids_are_not_truncated(self, bad):
        base = gen_gauss_blobs(3, 10, (0.0, 0.0), seed=0)
        with pytest.raises(ValueError, match="^kept_classes must be integers"):
            make_partial(base, [bad, 2])
        # integral floats and numpy integers name the same classes as ints
        for kept in ([1.0, 2.0], np.array([2, 1]), (np.int64(1), 2)):
            assert make_partial(base, kept).meta["params"]["kept_classes"] == [1, 2]


class TestOpenset:
    def test_relabeling_recount(self):
        base = gen_gauss_blobs(6, 25, (1.0, 0.5), seed=3)
        os = make_openset(base, shared_classes=[2, 5], src_extra=[1], tgt_extra=[3, 6])
        assert os.mode == "openset"
        assert os.k == 3 and os.k_shared == 2

        src_counts = np.bincount(os.source.labels, minlength=4)[1:]
        # shared classes keep their 25 points each; source extra becomes 3
        assert list(src_counts) == [25, 25, 25]
        base_tgt = base.eval_target_labels()
        hidden = os.eval_target_labels()
        tgt_counts = np.bincount(hidden, minlength=4)[1:]
        assert tgt_counts[0] == int((base_tgt == 2).sum())
        assert tgt_counts[1] == int((base_tgt == 5).sum())
        assert tgt_counts[2] == int(np.isin(base_tgt, [3, 6]).sum())
        # class 4 is dropped from both sides
        assert os.source.n == 75 and os.target.n == 100

    def test_sorted_renumbering(self):
        base = gen_gauss_blobs(5, 10, (0.0, 0.0), seed=1)
        os = make_openset(base, shared_classes=[4, 2], src_extra=[5], tgt_extra=[1])
        # shared sorted -> 2 maps to 1, 4 maps to 2
        src_lab = os.source.labels
        base_lab = base.source.labels
        keep = np.isin(base_lab, [2, 4, 5])
        expect = np.where(base_lab[keep] == 2, 1, np.where(base_lab[keep] == 4, 2, 3))
        assert np.array_equal(src_lab, expect)

    def test_validation(self):
        base = gen_gauss_blobs(4, 10, (0.0, 0.0), seed=0)
        with pytest.raises(ValueError):
            make_openset(base, [], [1], [2])
        with pytest.raises(ValueError):
            make_openset(base, [1], [1], [2])
        with pytest.raises(ValueError):
            make_openset(base, [1], [2], [9])
        # a single shared class is rejected when the pair is built
        with pytest.raises(ValueError):
            make_openset(base, [1], [2], [3])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("arg", ["shared_classes", "src_extra", "tgt_extra"])
    def test_class_ids_are_not_truncated(self, arg):
        base = gen_gauss_blobs(6, 10, (0.0, 0.0), seed=0)
        groups = {"shared_classes": [1, 2, 3], "src_extra": [4], "tgt_extra": [5, 6]}
        want = make_openset(base, **groups).meta
        bad = dict(groups, **{arg: [groups[arg][0] + 0.9] + groups[arg][1:]})
        with pytest.raises(ValueError, match="^%s must be integers" % arg):
            make_openset(base, **bad)
        floats = dict(groups, **{arg: [float(g) for g in groups[arg]]})
        assert make_openset(base, **floats).meta == want

    def test_pair_width_checks(self):
        src = SampleSet(np.ones((4, 2)), [1, 2, 3, 3])
        tgt = SampleSet(np.ones((3, 2)))
        hidden = np.array([1, 2, 3])
        DomainPair(src, tgt, "openset", {"k": 3, "k_shared": 2}, hidden)
        with pytest.raises(ValueError):
            DomainPair(src, tgt, "openset", {"k": 2, "k_shared": 1}, np.array([1, 2, 2]))
        with pytest.raises(ValueError):
            DomainPair(src, tgt, "openset", {"k": 4, "k_shared": 2}, hidden)
        with pytest.raises(ValueError):
            DomainPair(src, tgt, "openset", {"k": 3}, hidden)
        # closed and partial pairs keep any k_shared
        DomainPair(src, tgt, "closed", {"k": 4, "k_shared": 2}, hidden)

    def test_bad_manifest_fails_on_read(self, tmp_path):
        base = gen_gauss_blobs(5, 10, (0.0, 0.0), seed=0)
        path = tmp_path / "os.csv"
        write_csv(make_openset(base, [1, 2], [3], [4, 5]), path)
        manifest = json.loads(manifest_path(path).read_text())
        manifest["k"] = 4
        manifest_path(path).write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            read_csv(path)


class TestDomainPairContract:
    def test_eval_labels_returns_copy(self):
        pair = gen_rotated_moons(10, 10, 0.0, seed=0)
        lab = pair.eval_target_labels()
        lab[:] = 99
        assert pair.eval_target_labels().max() <= 2

    def test_target_labels_rejected_on_sample(self):
        src = SampleSet(np.ones((4, 2)), [1, 1, 2, 2])
        tgt = SampleSet(np.ones((3, 2)), [1, 1, 2])
        with pytest.raises(ValueError):
            DomainPair(src, tgt, "closed", {"k": 2, "k_shared": 2}, np.array([1, 1, 2]))

    def test_label_count_and_k_checks(self):
        src = SampleSet(np.ones((4, 2)), [1, 1, 2, 2])
        tgt = SampleSet(np.ones((3, 2)))
        with pytest.raises(ValueError):
            DomainPair(src, tgt, "closed", {"k": 2, "k_shared": 2}, np.array([1, 2]))
        with pytest.raises(ValueError):
            DomainPair(src, tgt, "closed", {"k": 2, "k_shared": 2}, np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            DomainPair(src, tgt, "weird", {"k": 2, "k_shared": 2}, np.array([1, 1, 2]))
        for hidden in ([0, 1, 2], [1, -3, 2]):  # hidden labels are 1-based too
            with pytest.raises(ValueError, match="1-based"):
                DomainPair(src, tgt, "closed", {"k": 2, "k_shared": 2}, np.array(hidden))


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        pair = gen_gauss_blobs(3, 12, (0.3, -0.7), seed=8, std=1.3)
        path = tmp_path / "pair.csv"
        write_csv(pair, path)
        assert manifest_path(path).exists()
        back = read_csv(path)
        assert np.array_equal(back.source.points, pair.source.points)
        assert np.array_equal(back.target.points, pair.target.points)
        assert np.array_equal(back.source.labels, pair.source.labels)
        assert np.array_equal(back.eval_target_labels(), pair.eval_target_labels())
        assert back.mode == pair.mode
        assert back.k == pair.k and back.k_shared == pair.k_shared
        assert back.meta["params"] == pair.meta["params"]

    def test_partial_mode_survives(self, tmp_path):
        pair = make_partial(gen_gauss_blobs(4, 10, (1.0, 0.5), seed=0), [1, 2])
        path = tmp_path / "partial.csv"
        write_csv(pair, path)
        back = read_csv(path)
        assert back.mode == "partial"
        assert back.k_shared == 2
        assert set(back.eval_target_labels().tolist()) == {1, 2}

    def test_write_that_raises_midway_leaves_the_old_files(self, tmp_path, monkeypatch):
        path = tmp_path / "pair.csv"
        write_csv(gen_rotated_moons(10, 10, 0.0, seed=0), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        other = gen_rotated_moons(10, 10, 0.0, seed=1)
        # the third target row fails, after the header, the source rows and
        # two target rows
        labels = np.array([1, 2, None] + [1] * 7, dtype=object)
        monkeypatch.setattr(other, "eval_target_labels", lambda: labels)
        with pytest.raises(TypeError):
            write_csv(other, path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_missing_manifest(self, tmp_path):
        pair = gen_rotated_moons(10, 10, 0.0, seed=0)
        path = tmp_path / "pair.csv"
        write_csv(pair, path)
        manifest_path(path).unlink()
        with pytest.raises(FileNotFoundError):
            read_csv(path)

    def test_bad_header_and_domain(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        manifest_path(path).write_text('{"mode": "closed", "k": 2, "k_shared": 2}\n')
        with pytest.raises(ValueError):
            read_csv(path)
        path.write_text("x1,x2,label,domain\n1,2,1,mars\n")
        with pytest.raises(ValueError):
            read_csv(path)
