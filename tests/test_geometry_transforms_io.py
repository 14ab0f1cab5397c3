"""Tests for geometry transforms and Selig I/O."""

import io

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import (
    normalize_chord,
    pitch,
    read_dat,
    read_dat_string,
    rotate,
    scale,
    to_dat_string,
    translate,
    write_dat,
)
from repro.geometry.airfoil import Airfoil


class TestTransforms:
    def test_rotate_quarter_turn(self):
        result = rotate(np.array([[1.0, 0.0]]), np.pi / 2)
        assert result == pytest.approx(np.array([[0.0, 1.0]]), abs=1e-12)

    def test_rotate_about_center(self):
        result = rotate(np.array([[2.0, 1.0]]), np.pi, center=(1.0, 1.0))
        assert result == pytest.approx(np.array([[0.0, 1.0]]), abs=1e-12)

    def test_translate(self):
        assert translate(np.array([[1.0, 2.0]]), (0.5, -1.0)) == pytest.approx(
            np.array([[1.5, 1.0]])
        )

    def test_scale_uniform(self):
        assert scale(np.array([[2.0, 4.0]]), 0.5) == pytest.approx(
            np.array([[1.0, 2.0]])
        )

    def test_scale_about_center(self):
        result = scale(np.array([[2.0, 2.0]]), 2.0, center=(1.0, 1.0))
        assert result == pytest.approx(np.array([[3.0, 3.0]]))

    def test_normalize_chord(self, naca2412):
        scrambled = Airfoil.from_points(
            translate(rotate(scale(naca2412.points, 2.5), 0.3), (4.0, -2.0)),
            name="scrambled",
        )
        restored = normalize_chord(scrambled)
        assert restored.chord == pytest.approx(1.0, abs=1e-9)
        assert restored.leading_edge == pytest.approx([0.0, 0.0], abs=0.02)
        assert restored.trailing_edge == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_pitch_preserves_shape(self, naca2412):
        pitched = pitch(naca2412, np.radians(5.0))
        assert pitched.area == pytest.approx(naca2412.area, rel=1e-9)
        assert pitched.perimeter == pytest.approx(naca2412.perimeter, rel=1e-9)

    def test_pitch_nose_up_raises_leading_edge(self, naca2412):
        pitched = pitch(naca2412, np.radians(8.0))
        assert pitched.leading_edge[1] > naca2412.leading_edge[1]


class TestSeligIO:
    def test_roundtrip_through_string(self, naca2412):
        text = to_dat_string(naca2412, digits=8)
        back = read_dat_string(text)
        assert back.name == naca2412.name
        assert back.points == pytest.approx(naca2412.points, abs=1e-7)

    def test_roundtrip_through_file(self, tmp_path, naca2412):
        path = tmp_path / "foil.dat"
        write_dat(naca2412, str(path))
        back = read_dat(str(path))
        assert back.n_panels == naca2412.n_panels

    def test_default_name_from_filename(self, tmp_path, naca2412):
        path = tmp_path / "mysection.dat"
        with open(path, "w") as handle:  # headerless numeric file
            for x, y in naca2412.points:
                handle.write(f"{x:.6f} {y:.6f}\n")
        assert read_dat(str(path)).name == "mysection"

    def test_comments_and_blanks_skipped(self):
        text = "test foil\n# comment\n\n1.0 0.0\n0.5 0.1\n0.0 0.0\n0.5 -0.1\n1.0 0.0\n"
        foil = read_dat_string(text)
        assert foil.name == "test foil"
        assert foil.n_panels == 4

    def test_garbage_line_raises(self):
        text = "name\n1.0 0.0\n0.5 abc\n"
        with pytest.raises(GeometryError, match="cannot parse"):
            read_dat_string(text)

    def test_too_few_points_raises(self):
        with pytest.raises(GeometryError, match="fewer than 4"):
            read_dat_string("name\n1.0 0.0\n0.0 0.0\n")

    def test_file_object_io(self, naca0012):
        buffer = io.StringIO()
        write_dat(naca0012, buffer)
        buffer.seek(0)
        assert read_dat(buffer).n_panels == naca0012.n_panels
