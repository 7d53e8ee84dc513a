import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from luq import cli
from luq.errors import DataFormatError
from luq.fileio import (
    ModelBundle,
    format_float,
    parse_config,
    read_csv_columns,
    read_features,
    read_model,
    read_values,
    write_csv,
    write_matrix,
    write_model,
    write_scores_csv,
)
from luq.flow import FlowArchitecture, build_flow, flow_log_prob
from luq.gmm import ClassConditionalGmm, EmOptions, fit_class_conditional, gmm_log_prob
from luq.linalg import pca_fit
from luq.priors import (
    BetaPrimePrior,
    CategoricalPrior,
    HistogramPrior,
    UniformPrior,
    fit_histogram,
)


class TestMatrixFile:
    def test_exact_byte_layout(self, tmp_path):
        # magic(4) | version u16 | rows u32 | cols u32 | f64 payload, all LE
        p = tmp_path / "layout.luq"
        write_matrix(p, np.array([[1.0, 2.0], [3.0, 4.0]]))
        raw = p.read_bytes()
        assert raw[:4] == b"LUQ1"
        assert struct.unpack("<H", raw[4:6])[0] == 1
        assert struct.unpack("<I", raw[6:10])[0] == 2
        assert struct.unpack("<I", raw[10:14])[0] == 2
        assert np.frombuffer(raw[14:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]
        assert len(raw) == 14 + 4 * 8

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(17, 5))
        p1 = tmp_path / "a.luq"
        p2 = tmp_path / "b.luq"
        write_matrix(p1, data)
        x = read_features(p1)
        assert x.dtype == np.float64 and x.flags.c_contiguous
        np.testing.assert_array_equal(x, data)
        write_matrix(p2, x)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_cites_offset(self, tmp_path):
        p = tmp_path / "t.luq"
        write_matrix(p, np.ones((4, 3)))
        whole = p.read_bytes()
        p.write_bytes(whole[:30])
        with pytest.raises(DataFormatError, match="byte offset"):
            read_features(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        p = tmp_path / "g.luq"
        write_matrix(p, np.ones((2, 2)))
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(DataFormatError, match="trailing"):
            read_features(p)

    @pytest.mark.parametrize("reader", [read_features])
    def test_every_truncation_and_an_appended_byte(self, tmp_path, reader):
        p = tmp_path / "c.luq"
        write_matrix(p, np.arange(6.0).reshape(3, 2))
        raw = p.read_bytes()
        for n in range(len(raw)):
            p.write_bytes(raw[:n])
            with pytest.raises(DataFormatError):
                reader(p)
        p.write_bytes(raw + b"\0")
        with pytest.raises(DataFormatError, match=r"1 trailing bytes after payload \(offset 62\)"):
            reader(p)

    @pytest.mark.parametrize("n, at, needed", [(4, 4, 10), (13, 4, 10), (14, 14, 48),
                                               (61, 14, 48)])
    def test_truncation_message(self, tmp_path, n, at, needed):
        p = tmp_path / "c.luq"
        write_matrix(p, np.arange(6.0).reshape(3, 2))
        p.write_bytes(p.read_bytes()[:n])
        with pytest.raises(DataFormatError) as err:
            read_features(p)
        assert str(err.value) == (f"{p}: truncated at byte offset {at} "
                                  f"(needed {needed} more bytes, file has {n})")

    @pytest.mark.parametrize("reader", [read_features])
    def test_returns_an_owned_writable_array(self, tmp_path, reader):
        p = tmp_path / "o.luq"
        write_matrix(p, np.arange(6.0).reshape(3, 2))
        x = reader(p)
        assert x.dtype == np.float64 and x.shape == (3, 2)
        assert x.flags.owndata and x.flags.writeable and x.flags.c_contiguous
        x[0, 0] = 7.0
        assert x[0, 0] == 7.0

    def test_csv_features_accepted(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("a,b\n1.5,2.5\n3.0,4.0\n")
        x = read_features(p)
        assert x.dtype == np.float64
        np.testing.assert_array_equal(x, [[1.5, 2.5], [3.0, 4.0]])

    def test_csv_header_only_has_no_data_rows(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("a,b\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            read_features(p)

    def test_csv_bad_row_cites_row(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("a,b\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(DataFormatError, match="row 3"):
            read_features(p)

    def test_csv_without_header_keeps_first_row(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(read_features(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_csv_mixed_first_line_is_row_1(self, tmp_path):
        # a letter O in a number: the line is data with a typo, not a header
        p = tmp_path / "f.csv"
        p.write_text("1.0,2.O,3\n4,5,6\n7,8,9\n")
        with pytest.raises(DataFormatError, match="row 1"):
            read_features(p)

    def test_read_values_single_column(self, tmp_path):
        p = tmp_path / "labels.luq"
        write_matrix(p, np.array([[0.0], [1.0], [1.0]]))
        np.testing.assert_array_equal(read_values(p), [0.0, 1.0, 1.0])
        wide = tmp_path / "wide.luq"
        write_matrix(wide, np.ones((2, 2)))
        with pytest.raises(DataFormatError, match="single column"):
            read_values(wide)


def small_gmm_bundle(seed=0, with_pca=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(60, 3))
    labels = rng.integers(0, 2, size=60)
    gmms = fit_class_conditional(x, labels, EmOptions(n_components=2, seed=seed))
    prior = CategoricalPrior(classes=(0, 1), log_probs=np.log([0.5, 0.5]))
    pca = pca_fit(rng.normal(size=(40, 5)), 3) if with_pca else None
    return ModelBundle(prior=prior, class_gmms=gmms, pca=pca), x


def small_flow_bundle():
    arch = FlowArchitecture(n_layers=2, hidden=(3,), cond_hidden=(3,), cond_feat_dim=2)
    return ModelBundle(prior=UniformPrior(-5.0, 5.0), flow=build_flow(2, 1, arch=arch))


class TestModelFile:
    def test_gmm_round_trip_bit_identical(self, tmp_path):
        bundle, x = small_gmm_bundle(with_pca=True)
        p1 = tmp_path / "m1.luqm"
        p2 = tmp_path / "m2.luqm"
        write_model(p1, bundle)
        loaded = read_model(p1)
        write_model(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        for c in (0, 1):
            np.testing.assert_array_equal(
                gmm_log_prob(loaded.class_gmms.per_class[c], x),
                gmm_log_prob(bundle.class_gmms.per_class[c], x),
            )
        np.testing.assert_array_equal(loaded.pca.basis, bundle.pca.basis)

    def test_flow_round_trip_preserves_density(self, tmp_path):
        rng = np.random.default_rng(1)
        flow = build_flow(3, 1, seed=4)
        for par in flow.params():
            par += rng.normal(scale=0.2, size=par.shape)
        bundle = ModelBundle(prior=UniformPrior(-5.0, 5.0), flow=flow)
        p = tmp_path / "f.luqm"
        write_model(p, bundle)
        loaded = read_model(p)
        z = rng.normal(size=(9, 3))
        c = rng.normal(size=(9, 1))
        np.testing.assert_array_equal(
            flow_log_prob(loaded.flow, z, c), flow_log_prob(flow, z, c)
        )

    @pytest.mark.parametrize(
        "prior",
        [
            CategoricalPrior(classes=(0, 1), log_probs=np.log([0.2, 0.8])),
            UniformPrior(-10.0, 10.0),
            BetaPrimePrior(31.76, 3.07),
            fit_histogram(np.random.default_rng(3).normal(5, 1, size=400), bins=12),
        ],
    )
    def test_every_prior_kind_round_trips(self, tmp_path, prior):
        if isinstance(prior, CategoricalPrior):
            bundle = ModelBundle(prior=prior, class_gmms=small_gmm_bundle()[0].class_gmms)
        else:
            bundle = ModelBundle(prior=prior, flow=small_flow_bundle().flow)
        p = tmp_path / "p.luqm"
        write_model(p, bundle)
        loaded = read_model(p)
        for y in [0, 1.0, 2.5, 5.0]:
            assert loaded.prior.log_pdf(y) == prior.log_pdf(y)

    def test_checksum_corruption_detected(self, tmp_path):
        bundle, _ = small_gmm_bundle()
        p = tmp_path / "c.luqm"
        write_model(p, bundle)
        raw = bytearray(p.read_bytes())
        raw[-3] ^= 0xFF  # flip a payload byte
        p.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="checksum"):
            read_model(p)

    @pytest.mark.parametrize("model", ["gmm", "flow"])
    def test_flipped_section_tag_bit(self, tmp_path, model):
        """Flipping the high bit of any byte of a section tag is a
        DataFormatError, and nothing else."""
        if model == "gmm":
            bundle, _ = small_gmm_bundle(with_pca=True)
        else:
            bundle = ModelBundle(prior=UniformPrior(-5.0, 5.0), flow=build_flow(2, 1, seed=0))
        p = tmp_path / "m.luqm"
        write_model(p, bundle)
        raw = p.read_bytes()
        pos, tags = 8, 0  # magic, version and section count come first
        while pos < len(raw):  # each section: tag(4) | length u64 | crc u32 | payload
            for i in range(pos, pos + 4):
                bad = bytearray(raw)
                bad[i] ^= 0x80
                p.write_bytes(bytes(bad))
                with pytest.raises(DataFormatError, match="unknown section tag"):
                    read_model(p)
            pos += 16 + struct.unpack_from("<Q", raw, pos + 4)[0]
            tags += 1
        assert tags == (3 if model == "gmm" else 2)

    def test_trailing_bytes_rejected(self, tmp_path, capsys):
        bundle, x = small_gmm_bundle()
        p = tmp_path / "t.luqm"
        write_model(p, bundle)
        size = p.stat().st_size
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(DataFormatError, match=f"1 trailing bytes .*offset {size}"):
            read_model(p)
        features = tmp_path / "x.luq"
        write_matrix(features, x)
        assert cli.main(["score", "--model", str(p), "--features", str(features),
                         "--output", str(tmp_path / "s.csv")]) == 3
        assert "trailing bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("part2", [[5], [0, 0], []],
                             ids=["out-of-range", "repeated", "missing"])
    def test_flow_parts_must_partition_the_latent(self, tmp_path, part2):
        bundle = small_flow_bundle()
        assert bundle.flow.layers[1].part1.tolist() == [1]
        bundle.flow.layers[1].part2 = np.array(part2)  # the CRC is written over it
        p = tmp_path / "f.luqm"
        write_model(p, bundle)
        with pytest.raises(DataFormatError, match=r"f\.luqm\[FLOW\]: layer 1: the coupling "
                                                  "parts do not partition the 2 latent"):
            read_model(p)

    def test_gmm_section_needs_a_class(self, tmp_path):
        bundle, _ = small_gmm_bundle()
        with pytest.raises(ValueError, match="the density holds no classes"):
            ClassConditionalGmm(dim=3, classes=(), per_class={})
        object.__setattr__(bundle.class_gmms, "classes", ())  # written as zero classes
        p = tmp_path / "g.luqm"
        write_model(p, bundle)
        with pytest.raises(DataFormatError,
                           match=r"g\.luqm\[GMMS\]: the density holds no classes"):
            read_model(p)

    def test_requires_density_section(self):
        with pytest.raises(ValueError):
            ModelBundle(prior=UniformPrior(0.0, 1.0))

    def test_holds_one_density_section(self, tmp_path):
        bundle, _ = small_gmm_bundle()
        flow = small_flow_bundle().flow
        with pytest.raises(ValueError, match="exactly one density section"):
            ModelBundle(prior=bundle.prior, class_gmms=bundle.class_gmms, flow=flow)
        bundle.flow = flow  # written as two sections, each with a valid CRC
        p = tmp_path / "both.luqm"
        write_model(p, bundle)
        with pytest.raises(DataFormatError, match=r"both\.luqm: a model holds exactly one "
                                                  "density section, GMMS or FLOW; found 2"):
            read_model(p)


class TestModelCorruption:
    """Every truncation, every 0x01, 0x80 and 0xFF flip of each byte, and
    one appended byte make a model file a DataFormatError, and nothing
    else."""

    @staticmethod
    def corruptions(raw: bytes):
        for n in range(len(raw)):
            yield raw[:n]
        for i in range(len(raw)):
            for mask in (0x01, 0x80, 0xFF):
                bad = bytearray(raw)
                bad[i] ^= mask
                yield bytes(bad)
        yield raw + b"\0"

    @pytest.mark.parametrize("model", ["gmm", "flow"])
    def test_every_corruption_is_a_format_error(self, tmp_path, model):
        bundle = small_gmm_bundle(with_pca=True)[0] if model == "gmm" else small_flow_bundle()
        p = tmp_path / "m.luqm"
        write_model(p, bundle)
        raw = p.read_bytes()
        for bad in self.corruptions(raw):
            p.write_bytes(bad)
            with pytest.raises(DataFormatError):
                read_model(p)


def nan_setters(bundle):
    """(section tag, setter) for every float parameter array and scalar of
    ``bundle``; a setter puts a NaN in its parameter, at the flat index it
    is given modulo the size, past the constructors' checks."""
    prior = vars(bundle.prior).items()
    arrays = [("PRIR", v) for _, v in prior if isinstance(v, np.ndarray)]
    scalars = [("PRIR", bundle.prior, name) for name, v in prior if isinstance(v, float)]
    if bundle.pca is not None:
        arrays += [("PCA", a) for a in (bundle.pca.mean, bundle.pca.basis,
                                        bundle.pca.eigenvalues)]
    if bundle.class_gmms is not None:
        for g in bundle.class_gmms.per_class.values():
            for comp in g.components:
                arrays += [("GMMS", comp.mean), ("GMMS", comp.cov_chol.lower)]
                scalars.append(("GMMS", comp, "log_weight"))
    else:
        arrays += [("FLOW", a) for a in bundle.flow.params()]
        scalars += [("FLOW", layer, "scale_clamp") for layer in bundle.flow.layers]
    return ([(tag, lambda i, a=a: np.put(a, i % a.size, np.nan)) for tag, a in arrays]
            + [(tag, lambda i, o=o, n=n: object.__setattr__(o, n, np.nan))
               for tag, o, n in scalars])


class TestNonFiniteParameters:
    """A NaN in any parameter of a model file is a DataFormatError naming
    the section that holds it."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), model=st.sampled_from(["gmm", "flow"]))
    def test_a_nan_names_its_section(self, tmp_path_factory, data, model):
        bundle = small_gmm_bundle(with_pca=True)[0] if model == "gmm" else small_flow_bundle()
        setters = nan_setters(bundle)
        tag, set_nan = setters[data.draw(st.integers(0, len(setters) - 1), label="parameter")]
        set_nan(data.draw(st.integers(0, 2**16), label="entry"))
        p = tmp_path_factory.mktemp("nan") / "m.luqm"
        write_model(p, bundle)
        with pytest.raises(DataFormatError, match=re.escape(f"{p}[{tag}]: ")):
            read_model(p)


class TestCsv:
    def test_format_float_round_trips(self):
        rng = np.random.default_rng(2)
        for x in rng.normal(scale=1e10, size=200):
            assert float(format_float(x)) == x
        for x in [0.1, 1 / 3, np.pi, 1e-300]:
            assert float(format_float(x)) == x

    def test_scores_csv_layout(self, tmp_path):
        p = tmp_path / "s.csv"
        write_scores_csv(p, [1.5, 2.5], [0.25, 0.125])
        text = p.read_text()
        lines = text.split("\n")
        assert lines[0] == "index,epistemic_nats,aleatoric_nats"
        assert lines[1].startswith("0,1.5")
        assert "\r" not in text

    def test_cell_forms(self, tmp_path):
        # integer columns as integers; float, float32 and bool columns in the
        # format_float form, NaN, infinities and the sign of zero included
        p = tmp_path / "c.csv"
        floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e17])
        write_csv(p, ["i", "f", "f32", "b"],
                  [np.arange(7, dtype=np.int32) - 3, floats,
                   np.array([0.1, -2, 0, 1, 2, 3, 4], dtype=np.float32),
                   np.arange(7) % 2 == 0])
        assert p.read_bytes() == (
            b"i,f,f32,b\n"
            b"-3,nan,0.10000000149011612,1\n"
            b"-2,inf,-2,0\n"
            b"-1,-inf,0,1\n"
            b"0,-0,1,0\n"
            b"1,4.9406564584124654e-324,2,1\n"
            b"2,0.10000000000000001,3,0\n"
            b"3,1e+17,4,1\n"
        )

    def test_read_columns_and_missing(self, tmp_path):
        p = tmp_path / "m.csv"
        write_csv(p, ["score", "label"], [np.array([0.5, 0.75]), np.array([0, 1])])
        cols = read_csv_columns(p, ["score", "label"])
        np.testing.assert_array_equal(cols["score"], [0.5, 0.75])
        with pytest.raises(DataFormatError, match="missing columns"):
            read_csv_columns(p, ["nope"])

    def test_read_columns_rejects_a_repeated_name(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("score,score,label\n0.9,0.1,1\n0.2,0.8,0\n")
        with pytest.raises(DataFormatError, match="a column name repeats"):
            read_csv_columns(p, ["score", "label"])


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


finite_matrices = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


class TestCsvProperties:
    """Finite float64 matrices read back bit-exactly from the CSV forms."""

    @settings(max_examples=40, deadline=None)
    @given(x=finite_matrices)
    def test_with_header_through_both_readers(self, tmp_path_factory, x):
        p = tmp_path_factory.mktemp("csv") / "h.csv"
        names = [f"c{j}" for j in range(x.shape[1])]
        write_csv(p, names, list(x.T))
        assert bits(read_features(p)) == bits(x)
        cols = read_csv_columns(p, names)
        assert [bits(cols[n]) for n in names] == [bits(col) for col in x.T]

    @settings(max_examples=40, deadline=None)
    @given(x=finite_matrices)
    def test_bare_rows(self, tmp_path_factory, x):
        p = tmp_path_factory.mktemp("csv") / "b.csv"
        p.write_text("".join(",".join(map(format_float, row)) + "\n" for row in x.tolist()))
        assert bits(read_features(p)) == bits(x)


def rewrites_identically(tmp_path, bundle) -> ModelBundle:
    """Write ``bundle``, read it back, and check that the copy writes the
    same bytes; returns the copy."""
    p1, p2 = tmp_path / "a.luqm", tmp_path / "b.luqm"
    write_model(p1, bundle)
    loaded = read_model(p1)
    write_model(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    return loaded


def random_categorical(data):
    classes = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=6,
                                 unique=True))
    weights = data.draw(hnp.arrays(np.float64, len(classes),
                                   elements=st.floats(0.01, 100.0)))
    return CategoricalPrior(classes=tuple(classes), log_probs=np.log(weights / weights.sum()))


def random_histogram(data):
    widths = data.draw(hnp.arrays(np.float64, st.integers(1, 8),
                                  elements=st.floats(0.01, 10.0)))
    heights = data.draw(hnp.arrays(np.float64, widths.size, elements=st.floats(0.01, 10.0)))
    edges = data.draw(st.floats(-100.0, 100.0)) + np.concatenate([[0.0], np.cumsum(widths)])
    return HistogramPrior(edges=edges,
                          log_densities=np.log(heights / np.sum(heights * np.diff(edges))))


class TestModelProperties:
    """Every prior kind and every density bundle round-trips bit-exactly."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["categorical", "uniform", "betaprime",
                                                 "histogram"]))
    def test_every_prior_kind(self, tmp_path_factory, data, kind):
        positive = st.floats(1e-3, 1e3)
        if kind == "categorical":
            prior = random_categorical(data)
        elif kind == "uniform":
            lo = data.draw(st.floats(-1e6, 1e6))
            prior = UniformPrior(lo, lo + data.draw(positive))
        elif kind == "betaprime":
            prior = BetaPrimePrior(data.draw(positive), data.draw(positive))
        else:
            prior = random_histogram(data)
        if kind == "categorical":  # one mixture serves every class of the prior
            mixture = small_gmm_bundle()[0].class_gmms.per_class[0]
            bundle = ModelBundle(prior=prior, class_gmms=ClassConditionalGmm(
                dim=mixture.dim, classes=prior.classes,
                per_class=dict.fromkeys(prior.classes, mixture)))
        else:
            bundle = ModelBundle(prior=prior, flow=small_flow_bundle().flow)
        loaded = rewrites_identically(tmp_path_factory.mktemp("prior"), bundle).prior
        assert type(loaded) is type(prior)
        for name, value in vars(prior).items():
            if isinstance(value, np.ndarray):
                assert bits(getattr(loaded, name)) == bits(value)
            else:
                assert getattr(loaded, name) == value

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), covariance=st.sampled_from(["full_per_component",
                                                                  "tied_across_components"]),
           with_pca=st.booleans())
    def test_gmm_bundle(self, tmp_path_factory, seed, covariance, with_pca):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(40, 3))
        labels = rng.integers(0, 3, size=40)
        opts = EmOptions(n_components=2, covariance_mode=covariance, seed=seed)
        gmms = fit_class_conditional(x, labels, opts)
        prior = CategoricalPrior(classes=gmms.classes,
                                 log_probs=np.full(len(gmms.classes), -np.log(len(gmms.classes))))
        pca = pca_fit(rng.normal(size=(20, 5)), 3, whiten=seed % 2 == 0) if with_pca else None
        bundle = ModelBundle(prior=prior, class_gmms=gmms, pca=pca)
        loaded = rewrites_identically(tmp_path_factory.mktemp("gmm"), bundle)
        assert loaded.class_gmms.classes == gmms.classes
        for c in gmms.classes:
            for a, b in zip(loaded.class_gmms.per_class[c].components,
                            gmms.per_class[c].components, strict=True):
                assert a.log_weight == b.log_weight
                assert bits(a.mean) == bits(b.mean)
                assert bits(a.cov_chol.lower) == bits(b.cov_chol.lower)
        if with_pca:
            for name in ("mean", "basis", "eigenvalues"):
                assert bits(getattr(loaded.pca, name)) == bits(getattr(pca, name))
            assert loaded.pca.whiten == pca.whiten
        else:
            assert loaded.pca is None

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), dim=st.integers(1, 4), n_layers=st.integers(1, 3))
    def test_flow_bundle(self, tmp_path_factory, seed, dim, n_layers):
        arch = FlowArchitecture(n_layers=n_layers, hidden=(4, 3), cond_hidden=(3,),
                                cond_feat_dim=2)
        flow = build_flow(dim, 2, arch=arch, seed=seed)
        rng = np.random.default_rng(seed)
        for par in flow.params():
            par += rng.normal(size=par.shape)
        bundle = ModelBundle(prior=UniformPrior(-5.0, 5.0), flow=flow)
        loaded = rewrites_identically(tmp_path_factory.mktemp("flow"), bundle).flow
        assert (loaded.dim, loaded.cond_dim) == (flow.dim, flow.cond_dim)
        assert [bits(p) for p in loaded.params()] == [bits(p) for p in flow.params()]
        for a, b in zip(loaded.layers, flow.layers, strict=True):
            assert a.scale_clamp == b.scale_clamp
            assert a.part1.tolist() == b.part1.tolist()
            assert a.part2.tolist() == b.part2.tolist()


class TestRunConfig:
    def test_parse_and_load(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\ncomponents = 5\nseed = 7  # inline\n\nprior = uniform:-10:10\n")
        entries = parse_config(p)
        assert entries == [(2, "components", "5"), (3, "seed", "7"),
                           (5, "prior", "uniform:-10:10")]
        parser = cli.build_parser()
        argv = cli._merge_config(["fit", "--features", "f", "--predictions", "p",
                                  "--model", "gmm", "--output", "o",
                                  "--config", str(p)], parser)
        args = parser.parse_args(argv)
        assert (args.components, args.seed, args.prior) == (5, 7, "uniform:-10:10")

    def test_unknown_key_cites_line(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("components = 5\nbogus = 1\n")
        assert parse_config(p)[1] == (2, "bogus", "1")
        assert cli.main(["fit", "--config", str(p)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad2.cfg"
        p.write_text("just some words\n")
        with pytest.raises(DataFormatError, match="line 1"):
            parse_config(p)
