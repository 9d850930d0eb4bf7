"""Tests for DIMACS I/O."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import parse_dimacs, write_dimacs
from repro.sat.dimacs import DimacsFormatError, read_dimacs


class TestDimacs:
    def test_roundtrip(self):
        clauses = [[1, -2, 3], [-1], [2, 3]]
        text = write_dimacs(3, clauses, comment="test instance")
        num_vars, parsed = parse_dimacs(text)
        assert num_vars == 3
        assert parsed == clauses

    def test_comment_lines_ignored(self):
        text = "c hello\nc world\np cnf 2 1\n1 -2 0\n"
        num_vars, clauses = parse_dimacs(text)
        assert num_vars == 2 and clauses == [[1, -2]]

    def test_clause_spanning_lines(self):
        text = "p cnf 3 1\n1 2\n3 0\n"
        _, clauses = parse_dimacs(text)
        assert clauses == [[1, 2, 3]]

    def test_missing_final_zero_tolerated(self):
        text = "p cnf 2 1\n1 -2\n"
        _, clauses = parse_dimacs(text)
        assert clauses == [[1, -2]]

    def test_missing_header_rejected(self):
        with pytest.raises(DimacsFormatError):
            parse_dimacs("1 2 0\n")

    def test_bad_header_rejected(self):
        with pytest.raises(DimacsFormatError):
            parse_dimacs("p cnf two 1\n1 0\n")
        with pytest.raises(DimacsFormatError):
            parse_dimacs("p sat 2 1\n1 0\n")

    def test_literal_out_of_range_rejected(self):
        with pytest.raises(DimacsFormatError):
            parse_dimacs("p cnf 2 1\n5 0\n")

    def test_non_integer_literal_rejected(self):
        with pytest.raises(DimacsFormatError):
            parse_dimacs("p cnf 2 1\nx 0\n")

    def test_read_from_file(self, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text(write_dimacs(2, [[1], [2]]))
        num_vars, clauses = read_dimacs(path)
        assert num_vars == 2 and len(clauses) == 2

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_roundtrip_property(self, data):
        n = data.draw(st.integers(1, 6))
        clauses = data.draw(st.lists(
            st.lists(
                st.integers(1, n).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=1, max_size=4,
            ),
            max_size=10,
        ))
        _, parsed = parse_dimacs(write_dimacs(n, clauses))
        assert parsed == clauses

