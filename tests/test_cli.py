"""Command-line interface: outputs and exit codes."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from leibalg import GF, QQ, LeibnizAlgebra, format_algebra, instantiate, parse_algebra
from leibalg import cli as cli_module
from leibalg import maximal as maximal_module
from leibalg import series as series_module
from leibalg.cli import main
from leibalg.randomgen import random_nilpotent_algebra

ROOT = Path(__file__).resolve().parents[1]


def count_calls(monkeypatch, *targets):
    """Record the name of each call to the given (owner, name) attributes."""
    calls = []
    for owner, name in targets:
        real = getattr(owner, name)

        def counting(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture
def heisenberg_file(tmp_path):
    path = tmp_path / "heis.alg"
    path.write_text(format_algebra(instantiate("heisenberg3", GF(3), {})))
    return str(path)


@pytest.fixture
def cex_file(tmp_path):
    path = tmp_path / "cex.alg"
    path.write_text(format_algebra(instantiate("cex_fourdim_A1", GF(3), {})))
    return str(path)


class TestVerify:
    def test_valid(self, heisenberg_file, capsys):
        assert main(["verify", heisenberg_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_table(self, tmp_path, capsys):
        triples = ["(1,2,1)", "(1,2,3)", "(1,3,2)", "(1,3,3)", "(2,1,1)", "(2,1,3)"]
        for field, coeff, residuals in (
            ("GF(5)", "1", ["4 0 0", "0 0 1", "0 0 4", "4 0 0", "1 0 0", "0 0 4"]),
            ("Q", "1/2", ["-1/2 0 0", "0 0 1/2", "0 0 -1/2", "-1/4 0 0", "1/2 0 0", "0 0 -1/2"]),
        ):
            path = tmp_path / "bad.alg"
            path.write_text(
                f"leibalg v1\nfield {field}\ndim 3\n"
                f"[1,2] = 1*3\n[2,1] = -1*3\n[1,3] = {coeff}*1\n"
            )
            assert main(["verify", str(path)]) == 1
            assert capsys.readouterr().out.splitlines() == [
                f"violation at triple {t}: residual [{r}]" for t, r in zip(triples, residuals)
            ] + ["6 violating triples"]

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "junk.alg"
        path.write_text("not a table\n")
        assert main(["verify", str(path)]) == 2

    def test_missing_file(self):
        assert main(["verify", "/nonexistent/file.alg"]) == 2

    def test_directory_is_an_input_error(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read ")

    def test_non_utf8_file_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.alg"
        path.write_bytes("leibalg v1\nfield Q\ndim 1\nbasis \xe9\n".encode("latin-1"))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read ")

    def test_negative_dim_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "neg.alg"
        path.write_text("leibalg v1\nfield Q\ndim -1\n")
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 3: negative dimension -1\n"


class TestAnalyze:
    def test_output_lines(self, heisenberg_file, capsys):
        assert main(["analyze", heisenberg_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "field GF(3)"
        assert out[1] == "dim 3"
        assert "lower [3, 1, 0]" in out
        assert "upper [0, 1, 3]" in out
        assert "class 2" in out
        assert "coclass 1" in out
        assert "cyclic false" in out
        assert "lie true" in out


    def test_builds_each_series_once(self, tmp_path, monkeypatch, capsys):
        # Z(A) and the cyclicity test are read off the profile's series terms,
        # and leib_dim and lie off one square ideal
        path = tmp_path / "cyclic4.alg"
        path.write_text(format_algebra(instantiate("cyclic_example4", GF(5), {})))
        calls = count_calls(
            monkeypatch,
            (series_module, "lower_central_series"),
            (series_module, "upper_central_series"),
            (LeibnizAlgebra, "center"),
            (LeibnizAlgebra, "leib_ideal"),
        )
        assert main(["analyze", str(path)]) == 0
        assert calls == ["lower_central_series", "upper_central_series", "leib_ideal"]
        assert capsys.readouterr().out.splitlines() == [
            "field GF(5)",
            "dim 4",
            "lower [4, 3, 2, 1, 0]",
            "upper [0, 1, 2, 3, 4]",
            "nilpotent true",
            "class 4",
            "coclass 0",
            "center_dim 1",
            "leib_dim 3",
            "cyclic true",
            "lie false",
        ]


class TestMaximals:
    def test_lists_tags(self, heisenberg_file, capsys):
        assert main(["maximals", heisenberg_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("[0,1]")

    def test_builds_one_record_per_maximal(self, heisenberg_file, monkeypatch, capsys):
        # one record for the algebra and one per distinct induced table: the
        # four maximals of heisenberg3 share one abelian table
        calls = count_calls(monkeypatch, (maximal_module, "_Side"))
        assert main(["maximals", heisenberg_file]) == 0
        assert calls == ["_Side"] * 2
        assert capsys.readouterr().out.splitlines()[0] == (
            "[0,1] dim=2 lower=[2, 0] upper=[0, 2] leib=0 z=2 zl=2 der=0 sq=9/0"
        )


class TestIso:
    def test_yes(self, tmp_path, capsys):
        a = instantiate("heisenberg3", GF(3), {})
        rng = random.Random(1)
        from leibalg.randomgen import change_of_basis, random_invertible_matrix

        b = change_of_basis(a, random_invertible_matrix(rng, GF(3), 3))
        pa, pb = tmp_path / "a.alg", tmp_path / "b.alg"
        pa.write_text(format_algebra(a))
        pb.write_text(format_algebra(b))
        assert main(["iso", str(pa), str(pb)]) == 0
        assert "isomorphic" in capsys.readouterr().out

    def test_no(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.alg", tmp_path / "b.alg"
        pa.write_text(format_algebra(instantiate("heisenberg3", GF(3), {})))
        pb.write_text(format_algebra(instantiate("abelian", GF(3), {"n": 3})))
        assert main(["iso", str(pa), str(pb)]) == 1


class TestProperties:
    def test_p1_true(self, heisenberg_file):
        assert main(["p1", heisenberg_file]) == 0

    def test_p1_false_with_witness(self, tmp_path, capsys):
        path = tmp_path / "a8.alg"
        path.write_text(format_algebra(instantiate("cex_A8", GF(3), {})))
        assert main(["p1", str(path)]) == 1
        assert "P1 fails" in capsys.readouterr().out

    def test_p2_false(self, cex_file, capsys):
        assert main(["p2", cex_file]) == 1
        out = capsys.readouterr().out
        assert "P2 fails" in out

    def test_p2_true(self, heisenberg_file):
        assert main(["p2", heisenberg_file]) == 0

    @pytest.mark.parametrize(
        "command,name,line",
        [
            ("p1", "cex_A8", "P1 fails: maximal [0,1] vs [1,0]: invariant lower_dims differs: "
             "(4, 1, 0) vs (4, 2, 0)"),
            ("p1", "cex_fourdim_A1", "P1 fails: maximal [0,0,1] vs [0,1,0]: invariant "
             "lower_dims differs: (3, 1, 0) vs (3, 0)"),
            ("p2", "cex_fourdim_A1", "P2 fails: maximal [0,0,1] vs [0,1,0]: upper series "
             "dims (0, 3) vs (0, 1, 3)"),
        ],
    )
    def test_witness_line(self, tmp_path, capsys, command, name, line):
        path = tmp_path / f"{name}.alg"
        path.write_text(format_algebra(instantiate(name, GF(3), {})))
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().out == line + "\n"

    def test_p1_takes_no_seed(self, heisenberg_file, monkeypatch, capsys):
        # the transitivity spot check is fixed, so neither --seed nor
        # LEIBALG_SEED reaches p1
        assert main(["p1", heisenberg_file, "--seed", "3"]) == 2
        monkeypatch.setenv("LEIBALG_SEED", "abc")
        capsys.readouterr()
        assert main(["p1", heisenberg_file]) == 0
        assert capsys.readouterr().out == "P1 holds: all maximal subalgebras are isomorphic\n"


class TestCatalogCommands:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "cc1_case2" in out and "A1_6dim" in out

    def test_make_and_verify(self, tmp_path):
        out = tmp_path / "cc1.alg"
        code = main(
            [
                "catalog", "make", "cc1_case2",
                "--field", "GF(3)",
                "--param", "tau=1", "--param", "lambda=0", "--param", "epsilon=0",
                "-o", str(out),
            ]
        )
        assert code == 0
        algebra = parse_algebra(out.read_text())
        assert algebra.dim == 3
        assert main(["verify", str(out)]) == 0

    def test_make_rejects_bad_params(self, capsys):
        code = main(
            [
                "catalog", "make", "cc1_case2",
                "--field", "GF(5)",
                "--param", "tau=1", "--param", "lambda=1", "--param", "epsilon=1",
            ]
        )
        assert code == 2

    def test_check_reports(self, capsys):
        code = main(
            [
                "catalog", "check", "holmes_iii",
                "--field", "GF(5)",
                "--param", "gamma=2",
            ]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        code = main(
            [
                "catalog", "check", "holmes_iii",
                "--field", "Q",
                "--param", "gamma=-4",
            ]
        )
        assert code == 1

    def test_unknown_entry(self):
        assert main(["catalog", "check", "nope", "--field", "Q"]) == 2

    @pytest.mark.parametrize("value", ["x", "2.5"])
    def test_make_rejects_a_size_that_is_not_an_integer(self, capsys, value):
        code = main(["catalog", "make", "abelian", "--field", "GF(3)", "--param", f"n={value}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: parameter n must be an integer, not {value!r}\n"

    def test_make_into_a_directory_is_an_input_error(self, tmp_path, capsys):
        code = main(["catalog", "make", "heisenberg3", "--field", "Q", "-o", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot write table: ")


class TestDeriveAndRelations:
    def test_derive(self, tmp_path, capsys):
        from leibalg.catalog import parametric_table6
        from leibalg.formats import format_parametric

        path = tmp_path / "table6.palg"
        path.write_text(format_parametric(parametric_table6()))
        assert main(["derive", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sorted(lines) == sorted(
            ["gamma - f - dhat", "gamma - d + f", "gamma + d + fhat"]
        )

    def test_derive_rejects_a_second_dim_line(self, tmp_path, capsys):
        path = tmp_path / "twodims.palg"
        path.write_text("leibalg v1\ndim 2\n[1,1] = a*2\ndim 1\n")
        assert main(["derive", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 4: second dim line, the first is line 2\n"

    @pytest.fixture
    def table6_file(self, tmp_path):
        from leibalg.catalog import parametric_table6
        from leibalg.formats import format_parametric

        table = tmp_path / "table6.palg"
        table.write_text(format_parametric(parametric_table6()))
        return str(table)

    def verify_relations(self, table, tmp_path, text, *extra):
        rels = tmp_path / "rels.txt"
        rels.write_text(text)
        return main(["verify-relations", table, "--relations", str(rels), *extra])

    def test_verify_relations(self, table6_file, tmp_path, capsys):
        text = "gamma - d + f\ngamma + d + fhat\ngamma - dhat - f\n"
        assert self.verify_relations(table6_file, tmp_path, text) == 0
        assert capsys.readouterr().out.splitlines() == [
            "pass relations => constraints: every linear constraint is a combination of the relations",
            "pass constraints => relations: every relation is a combination of the 3 linear constraints",
            "pass minimal: the 3 relations are independent",
        ]

    @pytest.mark.parametrize(
        "text, failing",
        [
            ("gamma - d - f\ngamma + d + fhat\ngamma - dhat - f\n", "relations => constraints"),
            ("gamma - d + f\ngamma + d + fhat\n", "relations => constraints"),
            ("gamma - d + f\ngamma + d + fhat\ngamma - dhat - f\nalpha\n", "constraints => relations"),
        ],
        ids=["wrong", "incomplete", "not forced"],
    )
    def test_verify_relations_fails(self, table6_file, tmp_path, capsys, text, failing):
        assert self.verify_relations(table6_file, tmp_path, text) == 1
        assert f"fail {failing}: " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", [["--trials", "5"], ["--field", "GF(101)"], ["--seed", "0"]]
    )
    def test_sampling_flags_are_gone(self, table6_file, tmp_path, flag):
        text = "gamma - d + f\ngamma + d + fhat\ngamma - dhat - f\n"
        assert self.verify_relations(table6_file, tmp_path, text, *flag) == 2


class TestReproduce:
    def test_subset_run(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main(
            [
                "reproduce",
                "--fields", "3",
                "--seed", "0",
                "--only", "identity.",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "summary:" in text
        assert "identity.heisenberg3@GF(3)" in text
        assert "SKIP" in text.upper()  # A1_6dim over GF(3)

    def test_corrupted_entry_fails(self, monkeypatch, capsys):
        # negative control: break one catalog builder and expect exit 1
        import leibalg.catalog as catalog_module
        from dataclasses import replace

        entry = catalog_module._ENTRIES["heisenberg3"]

        def bad_builder(field, prm):
            from leibalg import LeibnizAlgebra

            return LeibnizAlgebra.from_table(
                3, field, [(1, 2, {3: 1}), (2, 1, {3: -1}), (1, 3, {1: 1})]
            )

        monkeypatch.setitem(
            catalog_module._ENTRIES, "heisenberg3", replace(entry, builder=bad_builder)
        )
        code = main(["reproduce", "--fields", "3", "--only", "identity.heisenberg3"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_determinism_modulo_timing(self, capsys):
        import re

        def run():
            assert main(["reproduce", "--fields", "3", "--seed", "7", "--only", "relations."]) == 0
            out = capsys.readouterr().out
            return re.sub(r"\(\d+ ms\)", "(ms)", out)

        assert run() == run()

    def test_no_timing_byte_exact(self, capsys):
        def run():
            code = main(
                [
                    "reproduce", "--fields", "3", "--seed", "7",
                    "--only", "relations.", "--no-timing",
                ]
            )
            assert code == 0
            return capsys.readouterr().out

        first = run()
        assert "ms)" not in first
        assert first == run()

    def test_seed_env_fallback(self, monkeypatch, capsys):
        monkeypatch.setenv("LEIBALG_SEED", "3")
        from leibalg.cli import build_parser

        args = build_parser().parse_args(["reproduce"])
        assert args.seed == 3

    @pytest.mark.parametrize("argv", [["reproduce", "--fields", "3"]])
    def test_bad_seed_env_is_a_usage_error(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("LEIBALG_SEED", "abc")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "LEIBALG_SEED" in err and "'abc'" in err
        # an explicit --seed overrides the variable
        args = cli_module.build_parser().parse_args(["reproduce", "--seed", "4"])
        assert args.seed == 4

    def test_bad_fields(self, capsys):
        assert main(["reproduce", "--fields", "3,x"]) == 2

    def test_unwritable_output(self, capsys):
        code = main(
            [
                "reproduce", "--fields", "3",
                "--only", "identity.heisenberg3",
                "--out", "/nonexistent-dir/report.txt",
            ]
        )
        assert code == 2

    def test_every_entry_covered_by_claims(self):
        from leibalg import list_catalog
        from leibalg.reproduce import build_claims

        ids = " ".join(c.claim_id for c in build_claims([3, 5, 7], 0))
        for entry in list_catalog():
            assert entry.name in ids


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("command", ["maximals", "p1", "p2"])
    def test_maximals_needs_finite_field(self, tmp_path, command, capsys):
        path = tmp_path / "q.alg"
        path.write_text(format_algebra(instantiate("heisenberg3", QQ, {})))
        assert main([command, str(path)]) == 2
        assert "needs GF(p)" in capsys.readouterr().err

    def test_internal_error_exit_code(self, heisenberg_file, monkeypatch):
        from leibalg.errors import InternalError

        def boom(args):
            raise InternalError("synthetic breach")

        monkeypatch.setitem(cli_module._COMMANDS, "analyze", boom)
        assert main(["analyze", heisenberg_file]) == 3


class TestRandomGenerator:
    def test_towers_are_valid_and_nilpotent(self):
        from leibalg import is_nilpotent

        rng = random.Random(123)
        for _ in range(20):
            algebra = random_nilpotent_algebra(rng, GF(3), rng.randrange(1, 6))
            assert algebra.check_leibniz() == []
            assert is_nilpotent(algebra)

    def test_deterministic_given_seed(self):
        a = random_nilpotent_algebra(random.Random(5), GF(2), 4)
        b = random_nilpotent_algebra(random.Random(5), GF(2), 4)
        assert a == b


def run_python(*argv):
    """Run the interpreter on argv with this checkout's src on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["leibalg", "leibalg.cli"])
    def test_python_m_runs_the_command_line(self, module):
        out = run_python(
            "-m", module, "reproduce", "--fields", "3", "--only", "example4", "--no-timing"
        )
        golden = (ROOT / "verification_report.txt").read_text(encoding="utf-8")
        expected = [
            line for line in golden.splitlines() if "example4" in line and "@GF(3)" in line
        ]
        assert len(expected) == 2
        assert out == expected + ["summary: 2 passed, 0 failed, 0 skipped"]

    @pytest.mark.parametrize("only,claims", [("counterexample", 2), ("cc1.forced", 1)])
    def test_claims_hold_under_optimized_python(self, only, claims):
        # python -O strips asserts; the claims must check their witnesses anyway
        out = run_python(
            "-O", "-m", "leibalg", "reproduce", "--seed", "0", "--only", only, "--no-timing"
        )
        golden = (ROOT / "verification_report.txt").read_text(encoding="utf-8")
        expected = [line for line in golden.splitlines() if f" {only}" in line]
        assert len(expected) == claims
        assert out == expected + [f"summary: {claims} passed, 0 failed, 0 skipped"]
