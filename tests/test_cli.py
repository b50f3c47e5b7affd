import json

import pytest

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
        assert rect.entries[:, 0].tolist() == [7, 5, 1]
        assert rect.entries[:, 1].tolist() == [6, 4, 3]

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


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["index", "--nope"]) == 2


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
