"""Tests for repro.geometry.points."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import points as pt


class TestAsPoints:
    def test_list_of_pairs(self):
        result = pt.as_points([[0, 1], [2, 3]])
        assert result.shape == (2, 2)
        assert result.dtype == np.float64

    def test_single_point_promoted(self):
        assert pt.as_points([1.0, 2.0]).shape == (1, 2)

    def test_wrong_shape_raises(self):
        with pytest.raises(GeometryError, match="expected an"):
            pt.as_points([[1, 2, 3]])

    def test_dtype_override(self):
        assert pt.as_points([[0, 1]], dtype=np.float32).dtype == np.float32


class TestVectorOps:
    def test_dot_rowwise(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert pt.dot(a, b) == pytest.approx([17.0, 53.0])

    def test_cross_z(self):
        assert pt.cross_z(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert pt.cross_z(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == -1.0

    def test_norms(self):
        assert pt.norms(np.array([[3.0, 4.0]])) == pytest.approx([5.0])

    def test_normalize_unit_length(self):
        vectors = np.array([[3.0, 4.0], [0.0, -2.0]])
        result = pt.normalize(vectors)
        assert pt.norms(result) == pytest.approx([1.0, 1.0])

    def test_normalize_zero_raises(self):
        with pytest.raises(GeometryError, match="zero-length"):
            pt.normalize(np.array([[0.0, 0.0]]))

    def test_perpendicular_is_minus_90_rotation(self):
        result = pt.perpendicular(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert result == pytest.approx(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_perpendicular_orthogonal(self):
        vectors = np.array([[1.2, -0.7], [3.0, 2.0]])
        perp = pt.perpendicular(vectors)
        assert pt.dot(vectors, perp) == pytest.approx([0.0, 0.0])


class TestPolyline:
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])

    def test_segment_lengths(self):
        assert pt.segment_lengths(self.square) == pytest.approx([1.0] * 4)

    def test_polyline_length(self):
        assert pt.polyline_length(self.square) == pytest.approx(4.0)

    def test_arc_length_parameter(self):
        parameter = pt.arc_length_parameter(self.square)
        assert parameter == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])

    def test_midpoints(self):
        mids = pt.midpoints(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert mids == pytest.approx(np.array([[1.0, 0.0]]))

    def test_signed_area_ccw_positive(self):
        assert pt.signed_polygon_area(self.square) == pytest.approx(1.0)

    def test_signed_area_cw_negative(self):
        assert pt.signed_polygon_area(self.square[::-1]) == pytest.approx(-1.0)

    def test_is_clockwise(self):
        assert not pt.is_clockwise(self.square)
        assert pt.is_clockwise(self.square[::-1])

    def test_centroid(self):
        assert pt.centroid(np.array([[0.0, 0.0], [2.0, 4.0]])) == pytest.approx([1.0, 2.0])

    def test_bounding_box(self):
        low, high = pt.bounding_box(self.square)
        assert low == pytest.approx([0.0, 0.0])
        assert high == pytest.approx([1.0, 1.0])
