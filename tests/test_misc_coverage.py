"""Coverage for the error hierarchy, reports, runner and I/O properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import errors
from repro.experiments.runner import run_all_experiments
from repro.image import HDRImage, read_pfm, read_ppm, write_pfm, write_ppm


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        leaf_errors = [
            errors.FixedPointError,
            errors.BusAlignmentError,
            errors.ImageError,
            errors.ImageFormatError,
            errors.ToneMapError,
            errors.HlsError,
            errors.PragmaError,
            errors.ResourceError,
            errors.PlatformError,
            errors.DataMoverError,
            errors.PowerError,
            errors.FlowError,
        ]
        for err in leaf_errors:
            assert issubclass(err, errors.ReproError), err

    def test_subsystem_nesting(self):
        assert issubclass(errors.BusAlignmentError, errors.FixedPointError)
        assert issubclass(errors.ImageFormatError, errors.ImageError)
        assert issubclass(errors.PragmaError, errors.HlsError)
        assert issubclass(errors.ResourceError, errors.HlsError)
        assert issubclass(errors.DataMoverError, errors.PlatformError)

    def test_catchable_as_repro_error(self):
        with pytest.raises(errors.ReproError):
            HDRImage(np.array([[-1.0]]))


class TestHlsReportDetails:
    def test_non_pipelined_loop_shows_dash_ii(self):
        from repro.accel import BlurGeometry, get_variant
        from repro.hls import synthesize

        geom = BlurGeometry(height=64, width=64, radius=4, sigma=2.0)
        variant = get_variant("sequential", geom)
        text = synthesize(variant.kernel, pragmas=variant.pragmas).report()
        # Non-pipelined loops display "-" in the II column.
        rows = [l for l in text.splitlines() if l.strip().startswith("pixels")]
        assert rows and " - " in rows[0] + " "

    def test_report_total_latency_line(self):
        from repro.accel import BlurGeometry, get_variant
        from repro.hls import synthesize

        geom = BlurGeometry(height=64, width=64, radius=4, sigma=2.0)
        variant = get_variant("fxp", geom)
        design = synthesize(variant.kernel, pragmas=variant.pragmas)
        assert f"{design.total_cycles} cycles" in design.report()


class TestRunner:
    def test_suite_contains_all_artifacts(self):
        suite = run_all_experiments(image_size=64)
        assert len(suite.table2.rows) == 5
        assert suite.fig5.psnr_db > 40
        assert len(suite.fig6.bars) == 4
        assert len(suite.fig7.bars) == 4
        assert len(suite.fig8.ps_bars) == 4

    def test_render_joins_sections(self):
        suite = run_all_experiments(image_size=64)
        text = suite.render()
        assert text.index("TABLE II") < text.index("FIG 5")
        assert text.index("FIG 5") < text.index("FIG 8a")


small_planes = hnp.arrays(
    dtype=np.float32,
    shape=st.tuples(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
    ),
    elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                       width=32),
)


class TestIoProperties:
    @given(plane=small_planes)
    @settings(max_examples=60, deadline=None)
    def test_pfm_roundtrip_exact_gray(self, plane, tmp_path_factory):
        path = tmp_path_factory.mktemp("pfm") / "x.pfm"
        image = HDRImage(plane)
        write_pfm(image, path)
        np.testing.assert_array_equal(read_pfm(path).pixels, image.pixels)

    @given(plane=small_planes)
    @settings(max_examples=60, deadline=None)
    def test_pfm_roundtrip_exact_rgb(self, plane, tmp_path_factory):
        path = tmp_path_factory.mktemp("pfm") / "x.pfm"
        rgb = np.repeat(plane[:, :, None], 3, axis=2)
        image = HDRImage(rgb)
        write_pfm(image, path)
        back = read_pfm(path)
        np.testing.assert_array_equal(back.pixels, image.pixels)

    @given(
        data=hnp.arrays(
            dtype=np.uint8,
            shape=st.tuples(
                st.integers(min_value=1, max_value=10),
                st.integers(min_value=1, max_value=10),
                st.just(3),
            ),
            elements=st.integers(min_value=0, max_value=255),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_ppm_roundtrip_exact(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("ppm") / "x.ppm"
        write_ppm(data, path)
        np.testing.assert_array_equal(read_ppm(path), data)


class TestWorkloadEdgeCases:
    def test_tiny_workload_valid(self):
        from repro.experiments.workload import paper_workload

        workload = paper_workload(size=16)
        assert workload.geometry.taps <= 16
        assert workload.image.width == 16

    def test_custom_seed_changes_image(self):
        from repro.experiments.workload import make_paper_image

        a = make_paper_image(size=64, seed=1)
        b = make_paper_image(size=64, seed=2)
        assert a != b

    def test_blur_fn_injected_params(self):
        from repro.experiments.workload import make_paper_tonemap_params

        calls = []

        def fake_blur(plane, kernel):
            calls.append(1)
            return np.zeros_like(plane)

        params = make_paper_tonemap_params(blur_fn=fake_blur)
        assert params.blur_fn is fake_blur
