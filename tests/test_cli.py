import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magiclab.cli import main
from magiclab.graphs import build_multipartite, emit_edge_list, graph_to_json
from magiclab.labeling import labeling_to_json
from magiclab.rectangles import case1, rectangle_from_csv, rectangle_to_csv
from magiclab.families import theta_hnp


@pytest.fixture
def k33_file(tmp_path):
    path = tmp_path / "k33.txt"
    path.write_text(emit_edge_list(build_multipartite(3, 2)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestConstruct:
    def test_hnp_5_6(self, capsys):
        code, out = run(capsys, "construct", "--family", "hnp", "--n", "5", "--p", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["theta"] == 1
        assert doc["constant"] == 390
        assert len(doc["labels"]) == 30

    def test_m_hnp(self, capsys):
        code, out = run(
            capsys, "construct", "--family", "m-hnp",
            "--n", "3", "--p", "2", "--m", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["theta"] == 1 and doc["constant"] == 20

    def test_hypothesis_violation_exits_2(self, capsys):
        code, _ = run(capsys, "construct", "--family", "hnp", "--n", "1", "--p", "3")
        assert code == 2

    def test_csv_witness(self, capsys):
        code, out = run(
            capsys, "construct", "--family", "hnp", "--n", "3", "--p", "2",
            "--out", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "vertex,label"
        assert len(lines) == 7

    def test_lex_family(self, capsys, k33_file):
        code, out = run(
            capsys, "construct", "--family", "lex", "--n", "3", "--base", k33_file,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["theta"] == 1  # r = 3 odd, n = 3 odd

    @staticmethod
    def _assert_lex_by_one_refused(capsys, tmp_path, out):
        # C5[K̄1] is C5: its search belongs to `index`, which takes a budget
        graph_file = tmp_path / "c5.txt"
        graph_file.write_text("n 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        code = main([
            "construct", "--family", "lex", "--n", "1", "--base", str(graph_file),
            "--out", out,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--n >= 2" in captured.err and "magiclab index" in captured.err
        assert run(capsys, "index", "--graph", str(graph_file))[0] == 3

    def test_lex_by_one_refused_names_index(self, capsys, tmp_path):
        self._assert_lex_by_one_refused(capsys, tmp_path, "json")

    def test_lex_by_one_csv_refused_names_index(self, capsys, tmp_path):
        self._assert_lex_by_one_refused(capsys, tmp_path, "csv")

    def test_output_round_trips(self, capsys):
        _, out = run(capsys, "construct", "--family", "hnp", "--n", "4", "--p", "3")
        doc = json.loads(out)
        expected = theta_hnp(4, 3)
        assert doc["labels"] == list(expected.witness.labels)


class TestVerify:
    def test_golden_magic(self, capsys, tmp_path):
        g = build_multipartite(5, 6)
        graph_file = tmp_path / "h56.txt"
        graph_file.write_text(emit_edge_list(g))
        labels_file = tmp_path / "labels.json"
        witness = theta_hnp(5, 6).witness
        labels_file.write_text(json.dumps(labeling_to_json(witness)))
        code, out = run(capsys, "verify", "--graph", str(graph_file), "--labels", str(labels_file))
        assert code == 0
        doc = json.loads(out)
        assert doc["is_magic"] and doc["constant"] == 390

    def test_swapped_pair_exits_1(self, capsys, tmp_path):
        g = build_multipartite(5, 6)
        graph_file = tmp_path / "h56.txt"
        graph_file.write_text(emit_edge_list(g))
        labels = list(theta_hnp(5, 6).witness.labels)
        labels[0], labels[6] = labels[6], labels[0]  # cross-part swap
        labels_file = tmp_path / "labels.txt"
        labels_file.write_text(" ".join(str(x) for x in labels))
        code, out = run(capsys, "verify", "--graph", str(graph_file), "--labels", str(labels_file))
        assert code == 1
        assert not json.loads(out)["is_magic"]

    def test_truncated_labels_exit_2(self, capsys, tmp_path, k33_file):
        labels_file = tmp_path / "short.txt"
        labels_file.write_text("1 2 3")
        code, _ = run(capsys, "verify", "--graph", k33_file, "--labels", str(labels_file))
        assert code == 2

    def test_json_graph_input(self, capsys, tmp_path):
        g = build_multipartite(3, 2)
        graph_file = tmp_path / "k33.json"
        graph_file.write_text(json.dumps(graph_to_json(g)))
        labels_file = tmp_path / "lab.txt"
        labels_file.write_text("1 3 7 2 4 5")
        code, out = run(capsys, "verify", "--graph", str(graph_file), "--labels", str(labels_file))
        assert code == 0
        assert json.loads(out)["constant"] == 11

    def test_one_indexed_graph(self, capsys, tmp_path):
        graph_file = tmp_path / "k2.txt"
        graph_file.write_text("n 2\n1 2\n")
        labels_file = tmp_path / "lab.txt"
        labels_file.write_text("1 2")
        code, _ = run(
            capsys, "verify", "--graph", str(graph_file),
            "--labels", str(labels_file), "--one-indexed",
        )
        assert code == 1  # parses fine, K_2 is never magic


class TestIndex:
    def test_k33(self, capsys, k33_file):
        code, out = run(capsys, "index", "--graph", k33_file, "--cap", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["theta"] == 1

    def test_infinite_is_definitive(self, capsys, tmp_path):
        graph_file = tmp_path / "k3.txt"
        graph_file.write_text("n 3\n0 1\n0 2\n1 2\n")
        code, out = run(capsys, "index", "--graph", graph_file.as_posix())
        assert code == 0
        assert json.loads(out)["theta"] == "infinity"

    def test_unknown_at_cap_exits_3(self, capsys, tmp_path):
        graph_file = tmp_path / "c5.txt"
        graph_file.write_text("n 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        code, out = run(capsys, "index", "--graph", str(graph_file), "--cap", "0")
        assert code == 3
        assert json.loads(out)["kind"] == "unknown-at-cap"

    def test_node_budget_exits_3(self, capsys, k33_file):
        code, out = run(capsys, "index", "--graph", k33_file, "--budget", "3")
        assert code == 3
        assert json.loads(out)["kind"] == "indeterminate"

    @pytest.fixture
    def c5_file(self, tmp_path):
        graph_file = tmp_path / "c5.txt"
        graph_file.write_text("n 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        return str(graph_file)

    def test_budget_env_exhausted_exits_3(self, capsys, monkeypatch, c5_file):
        monkeypatch.setenv("MAGICLAB_BUDGET_MS", "0")
        code, out = run(capsys, "index", "--graph", c5_file)
        assert code == 3
        assert json.loads(out)["kind"] == "indeterminate"

    def test_budget_env_not_a_number_exits_2(self, capsys, monkeypatch, c5_file):
        monkeypatch.setenv("MAGICLAB_BUDGET_MS", "abc")
        assert main(["index", "--graph", c5_file]) == 2
        assert "MAGICLAB_BUDGET_MS is not a number" in capsys.readouterr().err

    def test_negative_budget_ms_exits_2(self, capsys, monkeypatch, c5_file):
        assert main(["index", "--graph", c5_file, "--budget-ms", "-5"]) == 2
        assert "budget_ms must be a number >= 0, got -5.0" in capsys.readouterr().err
        monkeypatch.setenv("MAGICLAB_BUDGET_MS", "-1")
        assert main(["index", "--graph", c5_file]) == 2
        assert "budget_ms must be a number >= 0, got -1.0" in capsys.readouterr().err

    def test_budget_flag_overrides_env(self, capsys, monkeypatch, c5_file):
        monkeypatch.setenv("MAGICLAB_BUDGET_MS", "0")
        code, out = run(capsys, "index", "--graph", c5_file, "--budget-ms", "100000")
        assert code == 3
        assert json.loads(out)["kind"] == "unknown-at-cap"

    def test_parse_error_exits_2(self, capsys, tmp_path):
        graph_file = tmp_path / "bad.txt"
        graph_file.write_text("0 0\n")
        code, _ = run(capsys, "index", "--graph", str(graph_file))
        assert code == 2


class TestRect:
    def test_case1_csv(self, capsys):
        code, out = run(capsys, "rect", "--case", "1", "--m", "1")
        assert code == 0
        assert "# deleted: 6" in out
        rect = rectangle_from_csv(out)
        assert rect == case1(1)

    def test_complement_of_case1(self, capsys, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text(rectangle_to_csv(case1(1)))
        code, out = run(capsys, "rect", "--case", "complement", "--input", str(path))
        assert code == 0
        rect = rectangle_from_csv(out)
        assert [row[0] for row in rect.entries] == [7, 5, 1]
        assert [row[1] for row in rect.entries] == [6, 4, 3]

    def test_split_pieces(self, capsys, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text(rectangle_to_csv(case1(2)))
        code, out = run(
            capsys, "rect", "--case", "split", "--input", str(path), "--pieces", "2"
        )
        assert code == 0
        assert "# piece 0" in out and "# piece 1" in out

    def test_balanced_json(self, capsys):
        code, out = run(
            capsys, "rect", "--case", "even", "--n", "2", "--p", "3", "--out", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"] == [[1, 2, 3], [6, 5, 4]]

    def test_case3(self, capsys):
        code, out = run(capsys, "rect", "--case", "3", "--n", "7", "--m", "1")
        assert code == 0
        assert "# deleted: 14" in out

    @pytest.mark.parametrize(
        "case,n,m", [("1", "3", "2"), ("2", "5", "3")], ids=["case1", "case2"]
    )
    def test_case3_builds_the_small_cases(self, capsys, case, n, m):
        code, small = run(capsys, "rect", "--case", case, "--m", m)
        assert code == 0
        code, general = run(capsys, "rect", "--case", "3", "--n", n, "--m", m)
        assert code == 0
        assert general == small

    def test_split_of_wrapping_sums_exits_2(self, capsys, tmp_path):
        # column sums 2^64 and 0: in int64 they would both read 0
        path = tmp_path / "w.csv"
        path.write_text(f"{2**62},0\n" * 4)
        assert main(["rect", "--case", "split", "--input", str(path), "--pieces", "2"]) == 2
        assert "not balanced" in capsys.readouterr().err

    def test_missing_args_exit_2(self, capsys):
        code, _ = run(capsys, "rect", "--case", "1")
        assert code == 2
        code, _ = run(capsys, "rect", "--case", "split", "--pieces", "2")
        assert code == 2


class TestEit:
    def test_infeasible_odd_rounds(self, capsys):
        code, out = run(capsys, "eit", "--teams", "6", "--rounds", "3")
        assert code == 1
        doc = json.loads(out)
        assert doc["feasible"] is False
        assert "odd rounds" in doc["reason"]

    def test_feasible(self, capsys):
        code, out = run(capsys, "eit", "--teams", "8", "--rounds", "2")
        assert code == 0
        assert json.loads(out)["feasible"] is True

    def test_unknown_exits_3(self, capsys):
        code, _ = run(capsys, "eit", "--teams", "7", "--rounds", "2")
        assert code == 3

    @pytest.mark.parametrize("teams", ["6", "10"])
    def test_two_mod_four_teams_with_rounds_zero_mod_four(self, capsys, teams):
        code, out = run(capsys, "eit", "--teams", teams, "--rounds", "4")
        assert code == 0
        doc = json.loads(out)
        assert (doc["feasible"], doc["reason"]) == (True, "n = 2 (mod 4) with r = 0 (mod 4)")

    @pytest.mark.parametrize("teams,rounds", [("5", "4"), ("7", "6"), ("7", "8"), ("7", "0")])
    def test_odd_teams_out_of_range_exits_1(self, capsys, teams, rounds):
        code, out = run(capsys, "eit", "--teams", teams, "--rounds", rounds)
        assert code == 1
        assert json.loads(out)["feasible"] is False

    def test_schedule_from_graph(self, capsys, k33_file, tmp_path):
        labels_file = tmp_path / "lab.txt"
        labels_file.write_text("1 3 7 2 4 5")
        code, out = run(
            capsys, "eit", "--teams", "6", "--rounds", "3",
            "--graph", k33_file, "--labels", str(labels_file),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["constant"] == 11
        assert all(row["total"] == 11 for row in doc["rows"])

    def test_schedule_via_search(self, capsys, k33_file):
        code, out = run(
            capsys, "eit", "--teams", "6", "--rounds", "3",
            "--graph", k33_file, "--format", "table",
        )
        assert code == 0
        assert "constant=11" in out

    def test_mismatched_teams_exit_2(self, capsys, k33_file):
        code, _ = run(capsys, "eit", "--teams", "7", "--rounds", "3", "--graph", k33_file)
        assert code == 2

    def test_irregular_graph_exits_2(self, capsys, tmp_path):
        path = tmp_path / "p3.txt"
        path.write_text("0 1\n1 2\n")
        assert main(["eit", "--teams", "3", "--rounds", "1", "--graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not regular" in err and "None" not in err


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["index", "--nope"]) == 2


class TestClosedStdout:
    """A reader that closes the pipe early gets exit 2, never a traceback or exit 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--family", "hnp", "--n", "7", "--p", "8"],
            ["eit", "--teams", "8", "--rounds", "4", "--format", "table"],
            ["rect", "--case", "1", "--m", "2"],
        ],
        ids=["construct", "eit-table", "rect"],
    )
    def test_closed_pipe_exits_2(self, argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child writes a byte
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "magiclab.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr


class TestInputErrors:
    """Malformed input exits 2 with a message; exit 1 stays "verified not magic"."""

    def test_label_json_without_labels_exits_2(self, capsys, tmp_path, k33_file):
        labels_file = tmp_path / "lab.json"
        labels_file.write_text('{"values": [1, 2, 3, 4, 5, 6]}')
        code = main(["verify", "--graph", k33_file, "--labels", str(labels_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert '"labels"' in err and "Traceback" not in err

    def test_fractional_json_label_exits_2(self, capsys, tmp_path, k33_file):
        # 1.9 used to be truncated to 1, which makes this K3,3 labeling magic
        labels_file = tmp_path / "lab.json"
        labels_file.write_text('{"labels": [1.9, 3, 7, 2, 4, 5]}')
        code = main(["verify", "--graph", k33_file, "--labels", str(labels_file)])
        assert code == 2
        assert "integers" in capsys.readouterr().err

    def test_graph_json_without_order_exits_2(self, capsys, tmp_path):
        graph_file = tmp_path / "g.json"
        graph_file.write_text('{"edges": [[0, 1]]}')
        code = main(["index", "--graph", str(graph_file)])
        assert code == 2
        assert '"order"' in capsys.readouterr().err

    def test_labels_beyond_int64_are_verified_exactly(self, capsys, tmp_path, k33_file):
        # both parts sum to 2^63 + 8: magic, with a constant past int64
        labels_file = tmp_path / "big.txt"
        labels_file.write_text(f"{2**63 + 5} 1 2 {2**63} 3 5")
        code, out = run(capsys, "verify", "--graph", k33_file, "--labels", str(labels_file))
        assert code == 0
        assert json.loads(out)["constant"] == 2**63 + 8
        labels_file.write_text(f"{2**63 + 5} 1 2 {2**63} 3 6")
        code, out = run(capsys, "verify", "--graph", k33_file, "--labels", str(labels_file))
        assert code == 1
        assert not json.loads(out)["is_magic"]

    def test_int64_wraparound_is_not_magic(self, capsys, tmp_path, k33_file):
        labels_file = tmp_path / "wrap.txt"
        labels_file.write_text(f"{2**63 - 1} {2**63 - 2} 10 1 2 4")
        code, out = run(capsys, "verify", "--graph", k33_file, "--labels", str(labels_file))
        assert code == 1
        assert json.loads(out)["weights"] == [7, 7, 7, 2**64 + 7, 2**64 + 7, 2**64 + 7]

    def test_graph_json_fractional_or_boolean_ids_exit_2(self, capsys, tmp_path):
        # int() used to truncate 2.5 to 2 and read true as vertex 1
        graph_file = tmp_path / "g.json"
        for doc in ('{"order": 2.5}', '{"order": 1e400}', '{"order": 3, "edges": [[0.5, 1]]}',
                    '{"order": 3, "edges": [[true, 2]]}', '{"order": 3, "edges": [[0]]}'):
            graph_file.write_text(doc)
            assert main(["index", "--graph", str(graph_file)]) == 2
            assert "Traceback" not in capsys.readouterr().err

    def test_huge_order_exits_2_before_allocating(self, capsys, tmp_path):
        graph_file = tmp_path / "g.txt"
        for text in ("n 99999999999999999999999\n0 1\n", "0 99999999999999999999999\n",
                     '{"order": 99999999999999999999999}'):
            graph_file.write_text(text)
            assert main(["verify", "--graph", str(graph_file), "--labels", str(graph_file)]) == 2
            assert "exceeds the limit" in capsys.readouterr().err

    def test_oversized_construction_exits_2(self, capsys):
        assert main(["construct", "--family", "hnp", "--n", "1000", "--p", "1001"]) == 2
        assert main(["rect", "--case", "even", "--n", "2", "--p", "500001"]) == 2
        assert "above the limit" in capsys.readouterr().err

    def test_eit_with_non_magic_labels_reports_verification(self, capsys, tmp_path, k33_file):
        labels_file = tmp_path / "lab.txt"
        labels_file.write_text("1 2 3 4 5 6")
        code, out = run(
            capsys, "eit", "--teams", "6", "--rounds", "3",
            "--graph", k33_file, "--labels", str(labels_file),
        )
        assert code == 1
        assert json.loads(out)["is_magic"] is False

    def test_negative_or_nan_budget_exits_2(self, capsys, k33_file):
        # a negative node limit used to mean "unlimited" inside the kernel
        assert main(["index", "--graph", k33_file, "--budget", "-5"]) == 2
        assert main(["index", "--graph", k33_file, "--budget-ms", "nan"]) == 2

    def test_oversized_rectangle_cell_exits_2(self, capsys, tmp_path):
        rect_file = tmp_path / "r.csv"
        rect_file.write_text(f"{2**70},1\n2,3\n")
        # the cell is read exactly, so the exact column sums 2^70+2 and 4 differ
        assert main(["rect", "--case", "split", "--input", str(rect_file), "--pieces", "1"]) == 2
        assert f"column sums [{2**70 + 2}, 4]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--graph", "{bad}", "--labels", "{labels}"],
        ["verify", "--graph", "{graph}", "--labels", "{bad}"],
        ["rect", "--case", "complement", "--input", "{bad}"],
    ])
    def test_undecodable_file_is_named(self, capsys, tmp_path, k33_file, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"n 6\n0 3\n\xff\n")
        labels = tmp_path / "lab.txt"
        labels.write_text("1 3 7 2 4 5")
        argv = [a.format(bad=bad, labels=labels, graph=k33_file) for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff in position 8"
        )

    @pytest.mark.parametrize("text,line", [
        ("# label_ceiling: x\n1,2\n", "line 1: non-integer value in '# label_ceiling: x'"),
        ("# label_ceiling: 4\n# deleted: 1, x\n1,2\n", "line 2: non-integer value in '# deleted: 1, x'"),
        ("1,2\n3,a\n", "line 2: non-integer cell in '3,a'"),
        # a ragged row is named by its file line, not by its place among the rows
        ("# label_ceiling: 4\n# deleted: -\n1,2\n3\n", "line 4: row has 1 cells, expected 2"),
        # each row's width is checked as it is read, so the first fault is the one named
        ("1,2\n3\n4,x\n", "line 2: row has 1 cells, expected 2"),
        ("1,2\n3,x\n4\n", "line 2: non-integer cell in '3,x'"),
    ])
    def test_bad_rectangle_line_is_named(self, capsys, tmp_path, text, line):
        rect_file = tmp_path / "r.csv"
        rect_file.write_text(text)
        assert main(["rect", "--case", "complement", "--input", str(rect_file)]) == 2
        assert capsys.readouterr().err == f"error: {rect_file}: {line}\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "--graph", "{graph}", "--labels", "{labels}"],
        ["eit", "--teams", "6", "--rounds", "3", "--graph", "{graph}", "--labels", "{labels}"],
    ])
    def test_non_integer_label_is_named(self, capsys, tmp_path, k33_file, argv):
        labels = tmp_path / "lab.txt"
        labels.write_text("1 3\n7 x 4 5\n")
        assert main([a.format(graph=k33_file, labels=labels) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {labels}: label 4 is not an integer: 'x'\n"


# ---------------------------------------------------------------------------
# fuzz: malformed argv and input files through main(), in-process
# ---------------------------------------------------------------------------

_INTS = st.sampled_from(["-3", "-1", "0", "1", "2", "3", "4", "5", "7", "x", "2.5", "", "99999999999999999999999"])

_GRAPH_TEXT = st.one_of(
    st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=7).map(
        lambda es: "".join(f"{u} {v}\n" for u, v in es)
    ),
    st.builds(
        lambda header, body: f"n {header}\n{body}",
        _INTS,
        st.sampled_from(["0 1\n1 2\n", "0 1\n1 2\n2 3\n3 0\n", "0 0\n", "0 1\n0 1\n", "a b\n", "1 2 3\n"]),
    ),
    st.builds(
        lambda order, edges: json.dumps({"order": order, "edges": edges}),
        st.sampled_from([3, 4, 0, -1, "4", None, 2.5, True, [], 10**23, float("inf"), float("nan")]),
        st.sampled_from([[[0, 1], [1, 2]], [[0, 1], [1, 2], [2, 3], [3, 0]], [[0]], [[0, 1, 2]], 5, [["a", 1]],
                         [[0.5, 1]], None, [[0, 9]], [[1, 1]]]),
    ),
    st.sampled_from(["", "#\n", "{", "{}", "[1, 2]", "n 3\nn 3\n", '{"order": 1e400}', "0 1\n1 2\n2 0\n"]),
    st.text(max_size=30),
)

_LABEL_TEXT = st.one_of(
    st.lists(st.integers(-2, 9), max_size=7).map(lambda xs: " ".join(map(str, xs))),
    st.sampled_from([[1, 2, 4, 3], [1, 2, 3], [1.5, 2, 3, 4], [True, 2, 3, 4], "1234", None, [2**70, 1, 2, 3]]).map(
        lambda labels: json.dumps({"labels": labels})
    ),
    st.sampled_from(["", "{", "[1, 2, 3, 4]", "1 2 x 4", "1.0 2 3 4", "9" * 30 + " 1 2 3"]),
    st.text(max_size=30),
)

_RECT_TEXT = st.one_of(
    st.lists(
        st.lists(st.sampled_from(["1", "2", "3", "4", "0", "-3", "a", "", "9" * 25]), min_size=1, max_size=3),
        max_size=3,
    ).map(lambda rows: "".join(",".join(row) + "\n" for row in rows)),
    st.sampled_from([
        "1,2\n3,4\n", "# label_ceiling: x\n1,2\n", "# deleted: a\n1,2\n", "1,2\n3\n", "", "1,a\n",
        "9" * 25 + ",1\n", "# label_ceiling: 7\n# deleted: 6\n1,2\n5,4\n7,3\n", "0,0\n", "-5,3\n",
        "# deleted: 1,2\n1,2\n", "1,2,3\n4,5,6\n",
    ]),
    st.text(max_size=30),
)


# (edge list, order, degree) of regular graphs, so that eit --graph runs
_REGULAR = st.sampled_from([
    ("0 1\n1 2\n2 3\n3 0\n", "4", "2"),
    ("0 1\n1 2\n2 0\n", "3", "2"),
    (emit_edge_list(build_multipartite(3, 2)), "6", "3"),
])


@st.composite
def _fuzz_case(draw):
    """(argv, files): a command line mixing valid and invalid options.

    Each command always gets the options it needs to read its files, so the
    malformed contents are actually parsed.  Searches stay budgeted.
    """
    files = {"g.txt": draw(_GRAPH_TEXT), "l.txt": draw(_LABEL_TEXT), "r.csv": draw(_RECT_TEXT)}

    def some(*options):
        return [tok for opt in options if draw(st.booleans()) for tok in opt]

    command = draw(st.sampled_from(["construct", "verify", "verify", "index", "rect", "rect", "eit", "eit", ""]))
    budget = ["--budget", draw(st.sampled_from(["-5", "0", "10", "2000", "x"]))]
    if command == "construct":
        family = draw(st.sampled_from(["hnp", "m-hnp", "m-cycle-lex", "lex", "x"]))
        rest = ["--family", family, "--n", draw(_INTS), "--base", "g.txt"] + some(
            ["--p", draw(_INTS)], ["--m", draw(_INTS)],
            ["--out", draw(st.sampled_from(["json", "csv", "xml"]))], ["--one-indexed"],
        )
    elif command == "verify":
        rest = ["--graph", "g.txt", "--labels", "l.txt"] + some(["--one-indexed"], ["--graph", "missing.txt"])
    elif command == "index":
        rest = ["--graph", "g.txt"] + budget + some(
            ["--cap", draw(st.sampled_from(["-1", "0", "1", "x"]))],
            ["--budget-ms", draw(st.sampled_from(["-1", "0", "50", "nan", "inf"]))],
            ["--one-indexed"],
        )
    elif command == "rect":
        case = draw(st.sampled_from(["1", "2", "3", "even", "odd", "complement", "split", "split", "9"]))
        rest = ["--case", case, "--input", "r.csv", "--pieces", draw(_INTS)] + some(
            ["--n", draw(_INTS)], ["--p", draw(_INTS)], ["--m", draw(_INTS)],
            ["--out", draw(st.sampled_from(["csv", "json"]))],
        )
    elif command == "eit":
        teams, rounds = draw(_INTS), draw(_INTS)
        if draw(st.booleans()):
            # a graph that passes the teams and rounds checks, often with a
            # labeling of the right length
            files["g.txt"], teams, rounds = draw(_REGULAR)
            if draw(st.booleans()):
                files["l.txt"] = " ".join(map(str, draw(st.permutations(range(1, int(teams) + 1)))))
        rest = ["--teams", teams, "--rounds", rounds] + some(
            budget, ["--graph", "g.txt"], ["--labels", "l.txt"],
            ["--format", draw(st.sampled_from(["json", "table"]))],
        )
    else:
        rest = some(["--help"], ["-x"])
    return ([command] if command else []) + rest, files


class TestFuzz:
    """main() never raises, exits 0-3, and exits 1 only on a negative verdict.

    Exit 1 means "verified not magic" (a report with "is_magic": false) or,
    for an eit feasibility query, "infeasible".
    """

    @settings(max_examples=500, deadline=None)
    @given(case=_fuzz_case())
    def test_main_contract(self, tmp_path_factory, case):
        argv, files = case
        work = tmp_path_factory.mktemp("fuzz")
        for name, text in files.items():
            (work / name).write_bytes(text.encode("utf-8", "surrogatepass"))
        argv = [str(work / a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            text = out.getvalue()
            if argv[0] == "eit" and "--graph" not in argv and "table" in argv:
                assert ": infeasible --" in text
            else:
                doc = json.loads(text)
                assert doc.get("is_magic") is False or doc.get("feasible") is False
