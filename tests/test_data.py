import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbp.data import HEADER_BYTES, Dataset, blob_center, make_blobs, read_sbpd, write_sbpd
from sbp.errors import ConfigurationError


def corner_blobs(count, grid, channels, n_classes, noise, seed):
    """`make_blobs` as it was when class k sat at corner (k % 2, (k // 2) % 2)."""
    h, w = grid
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = [(h * (0.25 + 0.5 * (k % 2)), w * (0.25 + 0.5 * ((k // 2) % 2)))
               for k in range(n_classes)]
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    labels = np.arange(count, dtype=np.int64) % n_classes
    x = np.empty((count, h, w, channels))
    sigma2 = (0.15 * (h + w)) ** 2
    for i in range(count):
        cy, cx = centers[labels[i]]
        bump = np.exp(-((rr - cy) ** 2 + (cc - cx) ** 2) / sigma2)
        x[i] = bump[:, :, None] + noise * rng.normal(size=(h, w, channels))
    perm = rng.permutation(count)
    return Dataset(np.ascontiguousarray(x[perm]), labels[perm])


class TestMakeBlobs:
    def test_shapes_and_balance(self):
        ds = make_blobs(20, grid=(4, 4), channels=2, n_classes=2, seed=0)
        assert ds.x.shape == (20, 4, 4, 2)
        assert ds.labels.shape == (20,)
        counts = np.bincount(ds.labels, minlength=2)
        assert counts[0] == counts[1] == 10

    def test_deterministic_in_seed(self):
        a = make_blobs(10, grid=(4, 4), seed=7)
        b = make_blobs(10, grid=(4, 4), seed=7)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.labels, b.labels)

    def test_noise_zero_is_separable(self):
        ds = make_blobs(8, grid=(8, 8), channels=1, noise=0.0, seed=0)
        # with no noise the class bump peaks in a class-specific corner
        for x, label in zip(ds.x, ds.labels):
            peak = np.unravel_index(np.argmax(x[:, :, 0]), (8, 8))
            assert (peak[0] < 4) == (label % 2 == 0)

    def test_every_class_has_its_own_centre(self):
        for h, w in ((8, 8), (4, 6)):
            centres = [blob_center(k, h, w) for k in range(16)]
            assert len(set(centres)) == 16
        # classes 0-3 keep the corner quarter points
        assert [blob_center(k, 8, 8) for k in range(4)] == [(2, 2), (6, 2), (2, 6), (6, 6)]

    def test_noise_free_class_means_differ(self):
        ds = make_blobs(64, grid=(8, 8), channels=1, n_classes=16, noise=0.0, seed=0)
        means = [ds.x[ds.labels == k].mean(axis=0) for k in range(16)]
        for i in range(16):
            for j in range(i):
                assert np.abs(means[i] - means[j]).max() > 0.01, (i, j)

    @pytest.mark.parametrize("n_classes", [1, 2, 3, 4])
    def test_up_to_four_classes_unchanged(self, n_classes):
        """Datasets of at most four classes keep their bytes: each corner
        stays where it was."""
        args = (24, (6, 5), 2, n_classes, 0.5, 3)
        ds, want = make_blobs(*args), corner_blobs(*args)
        assert ds.x.tobytes() == want.x.tobytes()
        assert ds.labels.tobytes() == want.labels.tobytes()

    def test_mismatched_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.zeros((3, 2, 2, 1)), np.zeros(4, dtype=np.int64))


class TestBatches:
    def test_covers_all_samples(self):
        ds = make_blobs(10, grid=(2, 2), seed=0)
        batches = list(ds.batches(4))
        assert [b[0].shape[0] for b in batches] == [4, 4, 2]
        stacked = np.concatenate([b[0] for b in batches])
        assert np.array_equal(stacked, ds.x)


class TestSbpdRoundtrip:
    def test_roundtrip(self, tmp_path):
        ds = make_blobs(6, grid=(3, 3), channels=2, seed=1)
        path = tmp_path / "toy.sbpd"
        write_sbpd(path, ds)
        back = read_sbpd(path)
        np.testing.assert_allclose(back.x, ds.x, atol=1e-6)  # float32 on disk
        assert np.array_equal(back.labels, ds.labels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sbpd"
        path.write_bytes(b"NOPE" + b"\x00" * 24)
        with pytest.raises(ConfigurationError, match="magic"):
            read_sbpd(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.sbpd"
        path.write_bytes(b"SBPD" + struct.pack("<IIIIII", 9, 0, 1, 1, 1, 1))
        with pytest.raises(ConfigurationError, match="version"):
            read_sbpd(path)

    def test_truncated_features(self, tmp_path):
        ds = make_blobs(4, grid=(2, 2), channels=1, seed=0)
        path = tmp_path / "trunc.sbpd"
        write_sbpd(path, ds)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(ConfigurationError, match="truncated"):
            read_sbpd(path)

    def test_trailing_bytes(self, tmp_path):
        ds = make_blobs(4, grid=(2, 2), channels=1, seed=0)
        path = tmp_path / "trail.sbpd"
        write_sbpd(path, ds)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ConfigurationError, match="trailing"):
            read_sbpd(path)

    def test_label_count_mismatch(self, tmp_path):
        ds = make_blobs(4, grid=(2, 2), channels=1, seed=0)
        path = tmp_path / "labels.sbpd"
        write_sbpd(path, ds)
        (tmp_path / "labels.sbpd.labels").write_text("0\n1\n")
        with pytest.raises(ConfigurationError, match="label count"):
            read_sbpd(path)

    def test_shorter_than_header(self, tmp_path):
        path = tmp_path / "short.sbpd"
        path.write_bytes(b"SBPD" + struct.pack("<III", 1, 4, 1))
        with pytest.raises(ConfigurationError, match="28-byte header"):
            read_sbpd(path)

    def test_header_size_is_checked_before_reading(self, tmp_path):
        """A header that claims 2**31 samples fails on the file's size,
        before any read asks for the 275 GB it claims."""
        path = tmp_path / "huge.sbpd"
        path.write_bytes(b"SBPD" + struct.pack("<IIIIII", 1, 2**31, 1, 4, 4, 2) + bytes(64))
        with pytest.raises(ConfigurationError, match="truncated"):
            read_sbpd(path)

    @pytest.mark.parametrize("dims", [(0, 1, 2, 2, 1), (3, 0, 2, 2, 1), (3, 1, 0, 2, 1),
                                      (3, 1, 2, 0, 1), (3, 1, 2, 2, 0)])
    def test_zero_size_rejected(self, tmp_path, dims):
        path = tmp_path / "zero.sbpd"
        path.write_bytes(b"SBPD" + struct.pack("<IIIIII", 1, *dims))
        with pytest.raises(ConfigurationError, match="zero size"):
            read_sbpd(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_feature_rejected(self, tmp_path, value):
        ds = make_blobs(2, grid=(2, 2), channels=1, seed=0)
        ds.x[1, 0, 1, 0] = value
        path = tmp_path / "nonfinite.sbpd"
        write_sbpd(path, ds)
        with pytest.raises(ConfigurationError, match="finite"):
            read_sbpd(path)

    @pytest.mark.parametrize("line", ["x", "1.5", "99999999999999999999999"])
    def test_label_must_be_int64(self, tmp_path, line):
        ds = make_blobs(2, grid=(2, 2), channels=1, seed=0)
        path = tmp_path / "labels.sbpd"
        write_sbpd(path, ds)
        (tmp_path / "labels.sbpd.labels").write_text(f"0\n{line}\n")
        with pytest.raises(ConfigurationError, match="int64"):
            read_sbpd(path)


def _valid_sbpd_bytes() -> tuple[bytes, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "toy.sbpd"
        write_sbpd(path, make_blobs(3, grid=(2, 2), channels=1, seed=0))
        return path.read_bytes(), Path(str(path) + ".labels").read_text()


VALID_SBPD, VALID_LABELS = _valid_sbpd_bytes()

label_texts = st.one_of(
    st.just(VALID_LABELS),
    st.text(max_size=40),
    st.lists(st.integers(-2**70, 2**70), max_size=5).map(
        lambda values: "".join(f"{v}\n" for v in values)))


@st.composite
def damaged_sbpd(draw):
    """A valid SBPD file, perhaps with a nan or infinite feature, perhaps
    cut short, and with a few bytes flipped."""
    data = bytearray(VALID_SBPD)
    if draw(st.booleans()):
        at = HEADER_BYTES + 4 * draw(st.integers(0, (len(data) - HEADER_BYTES) // 4 - 1))
        data[at:at + 4] = struct.pack("<f", draw(st.sampled_from([np.nan, np.inf, -np.inf])))
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    for _ in range(draw(st.integers(0, 3))):
        if data:
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


@settings(max_examples=150, deadline=None)
@given(data=damaged_sbpd(), labels=label_texts)
def test_damaged_file_reads_or_raises_configuration_error(data, labels):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.sbpd"
        path.write_bytes(data)
        Path(str(path) + ".labels").write_text(labels)
        try:
            ds = read_sbpd(path)
        except ConfigurationError:
            return
    assert ds.x.dtype == np.float64 and ds.labels.dtype == np.int64
    assert np.all(np.isfinite(ds.x))
    assert ds.count == ds.labels.shape[0] > 0
