import ast
import csv
import gc
import glob
import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hetsel.cli as cli_module
from conftest import read_records_reference, trace_steps
from hetsel import __version__, fit_prior, select_dd
from hetsel.cli import ayp_standard_error, main, read_records, trim_by_se_percentile


def _write_direct_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "x", "sigma"])
        writer.writerows(rows)


@pytest.fixture()
def direct_csv(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "data.csv"
    rows = []
    for i in range(120):
        mu = rng.uniform(-3, -1) if rng.random() < 0.8 else rng.uniform(1, 2)
        sigma = rng.uniform(0.5, 3.0)
        rows.append([f"u{i:03d}", repr(mu + sigma * rng.standard_normal()), repr(sigma)])
    _write_direct_csv(path, rows)
    return path


class TestAypStandardError:
    def test_hand_values(self):
        assert_allclose(ayp_standard_error(0.5, 0.5, 100, 100), 0.070711, atol=5e-7)
        assert_allclose(ayp_standard_error(0.8, 0.6, 400, 100), 0.052915, atol=5e-7)

    def test_degenerate_rates(self):
        with pytest.raises(ValueError):
            ayp_standard_error(1.0, 0.0, 10, 10)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            ayp_standard_error(1.2, 0.5, 10, 10)
        with pytest.raises(ValueError):
            ayp_standard_error(0.5, 0.5, 0, 10)


class TestTrim:
    def _columns(self, sigmas):
        sigma = np.asarray(sigmas, dtype=float)
        return [str(i) for i in range(sigma.size)], np.arange(sigma.size, dtype=float), sigma

    def test_identity(self):
        ids, x, sigma = self._columns([1.0, 2.0, 3.0])
        kept = trim_by_se_percentile(ids, x, sigma, 0.0, 1.0)
        assert kept[0] == ids
        assert np.array_equal(kept[1], x) and np.array_equal(kept[2], sigma)

    def test_hundred_distinct_keeps_98(self):
        ids, x, sigma = self._columns(np.linspace(1, 100, 100))
        kept_ids, kept_x, kept_sigma = trim_by_se_percentile(ids, x, sigma, 0.01, 0.99)
        assert len(kept_ids) == kept_x.size == kept_sigma.size == 98

    def test_constant_sigma_keeps_all(self):
        kept_ids, _, _ = trim_by_se_percentile(*self._columns([2.0] * 10), 0.01, 0.99)
        assert len(kept_ids) == 10

    def test_everything_trimmed(self):
        with pytest.raises(ValueError):
            trim_by_se_percentile(*self._columns([1.0, 2.0]), 0.4, 0.6)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            trim_by_se_percentile(*self._columns([1.0]), 0.5, 0.5)


class TestIngestion:
    def test_direct_layout(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_direct_csv(path, [["a", "1.5", "0.3"]])
        ids, x, sigma = read_records(path)
        assert (ids, x.tolist(), sigma.tolist()) == (["a"], [1.5], [0.3])

    def test_ayp_layout(self, tmp_path):
        path = tmp_path / "ayp.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "y", "y_prime", "n", "n_prime"])
            writer.writerow(["s1", "0.5", "0.5", "100", "100"])
        _, x, sigma = read_records(path)
        assert x[0] == 0.0
        assert_allclose(sigma[0], math.sqrt(0.005))

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        _write_direct_csv(path, [["a", "1.0", "0.5"], ["b", "oops", "0.5"]])
        with pytest.raises(ValueError, match=":3:"):
            read_records(path)

    def test_bad_sigma_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        _write_direct_csv(path, [["a", "1.0", "-2.0"]])
        with pytest.raises(ValueError, match=":2:"):
            read_records(path)

    def test_unknown_header(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError, match="unrecognized header"):
            read_records(path)

    @pytest.mark.parametrize(
        "lines", [["id,x,sigma", "a,1.5,0.3"], ["id,y,y_prime,n,n_prime", "a,0.8,0.6,400,100"]]
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, lines):
        # Excel's "CSV UTF-8" starts the file with U+FEFF.
        text = "\n".join(lines) + "\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        ids, x, sigma = read_records(marked)
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf" and ids == ["a"]
        assert (x.tolist(), sigma.tolist()) == tuple(v.tolist() for v in read_records(plain)[1:])

    @pytest.mark.parametrize("block_lines", [1, 2, 3, 4096])
    def test_blocks_read_as_the_line_scan(self, tmp_path, block_lines, monkeypatch):
        # Plain blocks are split, the others scanned by csv.reader; a quoted
        # id spanning lines can cross a block boundary.
        monkeypatch.setattr(cli_module, "_BLOCK_LINES", block_lines)
        path = tmp_path / "mixed.csv"
        path.write_bytes(
            b"id,x,sigma\r\na,1.5,0.3\r\nb,-2,1e-3,extra\n\n\"c\nd\",0.25,2\n"
            b"\"e,f\",1,1\ng,  3 ,1_0\nh,4.5,0.5"
        )
        ids, x, sigma = read_records(path)
        want = read_records_reference(path)
        assert ids == want[0] == ["a", "b", "c\nd", "e,f", "g", "h"]
        assert (x.tobytes(), sigma.tobytes()) == (want[1].tobytes(), want[2].tobytes())

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_reads_as_a_file(self, tmp_path, monkeypatch):
        # A quote in the second block hands the rest of the input to
        # csv.reader without a seek, so a pipe reads as the same file does.
        monkeypatch.setattr(cli_module, "_BLOCK_LINES", 2)
        data = b'id,x,sigma\na,1,1\nb,2,1\n"c",3,1\nd,4,1\ne,5,1\n'
        path, pipe = tmp_path / "plain.csv", tmp_path / "pipe.csv"
        path.write_bytes(data)
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(data,))
        writer.start()
        try:
            got = read_records(pipe)
        finally:
            writer.join()
        want = read_records(path)
        assert got[0] == want[0] == ["a", "b", "c", "d", "e"]
        assert (got[1].tobytes(), got[2].tobytes()) == (want[1].tobytes(), want[2].tobytes())

    @pytest.mark.parametrize("header, before", [
        ("id,x,sigma\n", 0),
        ("id,x,sigma\n", cli_module._BLOCK_LINES),
        ('"id\n",x,sigma\n', 0),
    ], ids=["first-block", "after-a-split-block", "quoted-header"])
    def test_error_names_the_line_its_record_starts_on(self, tmp_path, header, before):
        # A quoted field spanning lines moves every later record down a
        # line, in the first block, after a plain block that was split,
        # and in the header.
        plain = "".join(f"u{i},1.0,1.0\n" for i in range(before))
        path = tmp_path / "quoted.csv"
        path.write_text(header + plain + 'a,1.0,1.0\n"q\nq",1,1\nb,2.0,-1\n')
        line = header.count("\n") + before + 4
        for reader in (read_records, read_records_reference):
            with pytest.raises(ValueError, match=f":{line}: need sigma > 0 and finite x"):
                reader(path)

    @pytest.mark.parametrize("bad, message", [("oops", "could not convert"), ("nan", "finite x")])
    def test_error_in_a_later_block_keeps_its_line(self, tmp_path, bad, message):
        rows = [[f"u{i}", repr(0.001 * i), "1.0"] for i in range(9000)]
        rows[6000][1] = bad
        path = tmp_path / "late.csv"
        _write_direct_csv(path, rows)
        with pytest.raises(ValueError, match=f":6002: .*{message}"):
            read_records(path)

    @pytest.mark.parametrize("bad_line", [b"b,oops,1\n", b"b,2,1\n"])
    def test_decode_error_comes_where_the_line_scan_meets_it(self, tmp_path, bad_line):
        # Undecodable bytes past the first decoded chunk: a bad line before
        # them is reported first, else the decode error itself.
        filler = b"".join(b"u%d,1,1\n" % i for i in range(1000))
        path = tmp_path / "bytes.csv"
        path.write_bytes(b"id,x,sigma\na,1,1\n" + bad_line + filler + b"c,\xff,1\n" + filler)
        with pytest.raises(ValueError) as want:
            read_records_reference(path)
        with pytest.raises(ValueError) as got:
            read_records(path)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        assert ("could not convert" in str(got.value)) == (b"oops" in bad_line)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            read_records(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("id,x,sigma\n")
        with pytest.raises(ValueError) as exc:
            read_records(path)
        assert str(exc.value) == f"{path}: no data rows"

    def test_short_rate_row_names_its_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("id,y,y_prime,n,n_prime\na,0.5,0.4,10,10\nb,0.5,0.4\n")
        with pytest.raises(ValueError) as exc:
            read_records(path)
        assert str(exc.value) == f"{path}:3: expected at least 5 fields"


class TestSelectCommand:
    def test_artifacts_and_round_trip(self, direct_csv, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "select",
                "--input", str(direct_csv),
                "--output", str(out),
                "--alpha", "0.1",
                "--mu0", "0",
            ]
        )
        assert code == 0
        ids, x_in, sigma_in = read_records(direct_csv)
        back_ids, back_x, back_sigma = read_records(out / "selection.csv")
        # Bit-exact round trip of (id, x, sigma) through the output CSV.
        assert back_ids == ids
        assert back_x.tolist() == x_in.tolist() and back_sigma.tolist() == sigma_in.tolist()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tool"]["version"] == __version__
        assert summary["config"]["alpha"] == 0.1
        assert "seed" not in summary["config"]
        assert set(summary["fit"]["0"]) == {"objective", "kkt_gap", "bandwidths", "grid"}
        assert set(summary["n_selected"]) == {"dd", "clfdr_stepup", "bh"}
        assert set(summary["modified_power"]) == {"dd", "clfdr_stepup", "bh"}
        result = json.loads((out / "selection_result.json").read_text())
        assert result["schema"] == "hetsel/selection-result/v1"
        assert set(result) - {"schema", "tool", "config"} == {"etp_star", "capacity"}
        # The selected units are the rows selection.csv marks, and each is
        # added (and not rolled back) in trace.csv.
        csv_selected = {i for i, flag in enumerate(_selected_flags(out / "selection.csv")) if flag}
        with open(out / "trace.csv", newline="") as fh:
            steps = [(row["step"], row["unit"]) for row in csv.DictReader(fh)]
        added = {int(u) for step, u in steps if step.startswith(("seed", "add"))}
        undone = {int(u) for step, u in steps if step.startswith("rollback")}
        assert added - undone == csv_selected
        # The s and group columns are those of a fresh scoring of the
        # written clfdr column.
        with open(out / "selection.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        x = np.array([float(r["x"]) for r in rows])
        clfdr = np.array([float(r["clfdr"]) for r in rows])
        curve = select_dd(x, clfdr, 0.1, 0.0)
        s = np.tanh(curve.t)
        assert [r["s"] for r in rows] == [repr(float(v)) for v in s]
        labels = curve.group
        assert [r["group"] for r in rows] == [str(int(v)) for v in labels]

    def test_reported_sums_are_over_the_selected_rows(self, direct_csv, tmp_path):
        # Modified power, leftover budget and count of the step-wise
        # selection, as both JSON files report them, are sums over the rows
        # selection.csv marks as selected, in file order.
        out = tmp_path / "out"
        argv = ["select", "--input", str(direct_csv), "--output", str(out), "--mu0", "0.5"]
        assert main(argv + ["--alpha", "0.1"]) == 0
        with open(out / "selection.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["selected"] == "1"]
        assert rows
        x = np.array([float(r["x"]) for r in rows])
        clfdr = np.array([float(r["clfdr"]) for r in rows])
        summary = json.loads((out / "summary.json").read_text())
        result = json.loads((out / "selection_result.json").read_text())
        assert result["etp_star"] == summary["modified_power"]["dd"] == float(np.sum(x - 0.5))
        assert result["capacity"] == float(-np.sum(clfdr - 0.1))
        assert summary["n_selected"]["dd"] == len(rows)

    def test_deterministic(self, direct_csv, tmp_path):
        args = ["select", "--input", str(direct_csv), "--alpha", "0.1", "--mu0", "0"]
        assert main(args + ["--output", str(tmp_path / "a")]) == 0
        assert main(args + ["--output", str(tmp_path / "b")]) == 0
        for name in ("selection.csv", "summary.json", "selection_result.json", "trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_trace_csv_is_the_curve_trace(self, direct_csv, tmp_path):
        # trace.csv holds the curve's trace row for row, an empty unit cell
        # at each checkpoint, each float as the repr float() reads back. A
        # far unit with mu0 near the float range makes the running power
        # +inf.
        with open(direct_csv, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        far = tmp_path / "far.csv"
        _write_direct_csv(far, [[f"{uid}-{c}", x, sigma] for c in range(8)
                                for uid, x, sigma in rows] + [["far", "1e308", "1.0"]])
        for path, mu0 in ((direct_csv, 0.5), (far, -1e305)):
            out = tmp_path / f"out{mu0}"
            assert main(["select", "--input", str(path), "--output", str(out),
                         f"--mu0={mu0!r}"]) == 0
            with open(out / "selection.csv", newline="") as fh:
                units = list(csv.DictReader(fh))
            x = np.array([float(r["x"]) for r in units])
            clfdr = np.array([float(r["clfdr"]) for r in units])
            want = trace_steps(select_dd(x, clfdr, 0.1, mu0))
            with open(out / "trace.csv", newline="") as fh:
                header, *cells = list(csv.reader(fh))
            assert header == ["step", "unit", "etp_star", "capacity"]
            got = [{"step": step, "unit": int(unit) if unit else None,
                    "etp_star": float(etp), "capacity": float(cap)}
                   for step, unit, etp, cap in cells]
            assert len(got) == len(want) and any(row["unit"] is None for row in got)
            for g, w in zip(got, want):
                # NaN is the one value not equal to itself.
                assert all(g[k] == w[k] or math.isnan(g[k]) and math.isnan(w[k]) for k in g), g
            finite = np.isfinite([row["etp_star"] for row in got])
            assert finite.all() == (mu0 == 0.5)

    def test_fit_block_matches_fit_prior(self, direct_csv, tmp_path):
        out = tmp_path / "out"
        assert main(
            ["select", "--input", str(direct_csv), "--output", str(out), "--mu0", "0"]
        ) == 0
        block = json.loads((out / "summary.json").read_text())["fit"]["0"]
        _, x, sigma = read_records(direct_csv)
        fit = fit_prior(x, sigma)
        assert block == {
            "objective": fit.objective,
            "kkt_gap": fit.kkt_gap,
            "bandwidths": {"h_x": fit.bandwidths.h_x, "h_sigma": fit.bandwidths.h_sigma},
            "grid": {"left": fit.grid.left, "eta": fit.grid.eta, "k": fit.grid.k},
        }

    def test_missing_mu0_is_usage_error(self, direct_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--input", str(direct_csv), "--output", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_runtime_error_reports_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,x,sigma\na,1.0,-1\n")
        code = main(
            ["select", "--input", str(bad), "--output", str(tmp_path / "o"), "--mu0", "0"]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("line", [1, 3])
    def test_overlong_field_reports_its_line(self, line, tmp_path, capsys):
        # A field over csv's size limit is a ValueError naming its line,
        # reported as the JSON error object, in the header and in a row.
        lines = ["id,x,sigma", "a,1.0,1.0", "b,2.0,1.0", "c,3.0,1.0"]
        lines[line - 1] = "u" * 200_000 + lines[line - 1]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(
            ["select", "--input", str(bad), "--output", str(tmp_path / "o"), "--mu0", "0"]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert f":{line}: field larger than field limit" in err["message"]

    def test_far_outliers_score_their_limit(self, direct_csv, tmp_path, capsys):
        # A unit 1e17 sigma above every node has clfdr 0 (group 0), not the
        # value z^2 rounds to; at 1e300 sigma z^2 overflows; at 1e308 the
        # unit's kernel position and its score t overflow, and so do the
        # power sums at the low end of the default mu0 grid; with a unit
        # at -1e308 too so does the x gap between them, which leaves no
        # default mu0 grid; eight units at each end overflow the mean of
        # the bandwidth's sd both ways. Each overflow gives the right
        # limit, and no command warns. Eight copies of the units make the
        # power sums overflow.
        with open(direct_csv, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        rows = [[f"{uid}-{c}", x, sigma] for c in range(8) for uid, x, sigma in rows]
        runs = [["select", "--mu0", "0"], ["deconv-fit"],
                ["rvalue", "--definition", "alpha", "--mu0", "0"],
                ["rvalue", "--definition", "mu0", "--alpha", "0.1"]]
        # With the unit at 1e308, a mu0 near the float range overflows the
        # power sums (-1e305), the score's x - mu0 (-1e308) and the z-value
        # (1e308) of select.
        far_mu0 = {"-1e305": math.inf, "-1e308": math.inf, "1e308": 0.0}
        for far in (["1e17"], ["1e300"], ["1e308"], ["1e308", "-1e308"], ["1e308", "-1e308"] * 8):
            path = tmp_path / f"{len(far)}-{far[0]}.csv"
            _write_direct_csv(path, rows + [[f"far{i}", v, "1.0"] for i, v in enumerate(far)])
            extra = [["select", f"--mu0={v}"] for v in far_mu0] if far == ["1e308"] else []
            for argv in runs + extra:
                out = tmp_path / f"{len(far)}-{far[0]}-{argv[0]}{argv[-1].partition('--mu0=')[2]}"
                no_grid = "-1e308" in far and argv[1:3] == ["--definition", "mu0"]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main(argv + ["--input", str(path), "--output", str(out)])
                assert code == (1 if no_grid else 0)
                if no_grid:
                    message = json.loads(capsys.readouterr().err)["error"]["message"]
                    assert "too wide for the default mu0 grid" in message
            for v, power in far_mu0.items() if extra else ():
                summary = json.loads((tmp_path / f"1-1e308-select{v}" / "summary.json").read_text())
                assert summary["modified_power"] == dict.fromkeys(("dd", "clfdr_stepup", "bh"), power)
            with open(tmp_path / f"{len(far)}-{far[0]}-select" / "selection.csv", newline="") as fh:
                last = list(csv.DictReader(fh))[-len(far):]
            assert [(r["id"], float(r["x"])) for r in last] == [
                (f"far{i}", float(v)) for i, v in enumerate(far)
            ]
            want = [("1.0", "3", "0") if v[0] == "-" else ("0.0", "0", "1") for v in far]
            assert [(r["clfdr"], r["group"], r["selected"]) for r in last] == want
        # Two units at each end among 104 put the 1% and 99% quantiles near
        # the float range too, so the prior grid's span exceeds it: every
        # command fails, naming both quantiles, and none warns.
        path = tmp_path / "wide.csv"
        _write_direct_csv(path, rows[:100] + [[f"far{i}", v, "1.0"]
                                              for i, v in enumerate(["1e308", "-1e308"] * 2)])
        for i, argv in enumerate(runs):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv + ["--input", str(path), "--output", str(tmp_path / f"wide{i}")])
            assert code == 1
            message = json.loads(capsys.readouterr().err)["error"]["message"]
            assert "the 1% and 99% quantiles, -9." in message
            assert message.endswith("their span exceeds the float range")

    def test_power_overflowing_both_ways_names_mu0(self, direct_csv, tmp_path, capsys,
                                                   monkeypatch):
        # A baseline that selects only the far units sums their gains past
        # +1e308 and their losses past -1e308: a NaN, so an error naming
        # mu0, not an artifact. The units sit where numpy's pairwise sum
        # overflows both ways over the selection but cancels them over all
        # units, whose spread the fit takes.
        with open(direct_csv, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        rows = [[f"{uid}-{c}", x, sigma] for c in range(8) for uid, x, sigma in rows]
        for j in range(8):
            rows.insert(8 * j + j % 2, [f"far{j}", ("1e308", "-1e308")[j // 2 % 2], "1.0"])
        path = tmp_path / "far.csv"
        _write_direct_csv(path, rows)
        x = read_records(path)[1]
        far = (np.abs(x) > 1e300).astype(np.int8)
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(np.sum(x[far == 1])) and not math.isnan(np.sum(x))
        monkeypatch.setattr(cli_module, "select_bh", lambda p, alpha: far)
        code = main(["select", "--mu0", "0", "--input", str(path),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "modified power at mu0 = 0.0 overflows the float range both ways" in message

    def test_unfittable_sigma_group_is_named(self, direct_csv, tmp_path, capsys):
        sigma = sorted(read_records(direct_csv)[2].tolist())
        cut = (sigma[-2] + sigma[-1]) / 2
        code = main(
            [
                "select",
                "--input", str(direct_csv),
                "--output", str(tmp_path / "o"),
                "--mu0", "0",
                "--sigma-split", repr(cut),
            ]
        )
        assert code == 1
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith(f"fit group 1 (1 units, sigma in [{sigma[-1]!r}, ")


def test_sigma_split_cuts_are_sorted(direct_csv, tmp_path):
    # Cuts given in any order fit the same groups, and the config records
    # them in the order that numbers the groups.
    docs = []
    for split in ("2.0,1.2", "1.2,2.0"):
        out = tmp_path / split
        argv = ["deconv-fit", "--input", str(direct_csv), "--output", str(out)]
        assert main(argv + ["--sigma-split", split]) == 0
        docs.append(json.loads((out / "prior_fit.json").read_text()))
    assert docs[0] == docs[1]
    assert docs[0]["config"]["sigma_split"] == [1.2, 2.0]
    assert sorted(docs[0]["fits"]) == ["0", "1", "2"]


def test_duplicate_sigma_split_cut_is_usage_error(direct_csv, tmp_path, capsys):
    argv = ["deconv-fit", "--input", str(direct_csv), "--output", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--sigma-split", "1.5,1.5"])
    assert exc.value.code == 2
    assert "error: --sigma-split cuts must be distinct, got 1.5,1.5" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["select", "--mu0", "inf"], "--mu0"),
        (["select", "--mu0", "nan"], "--mu0"),
        (["select", "--mu0", "0", "--sigma-split", "nan"], "--sigma-split"),
        (["select", "--mu0", "0", "--sigma-split", "1,-inf"], "--sigma-split"),
        (["rvalue", "--definition", "alpha", "--mu0", "nan"], "--mu0"),
        (["deconv-fit", "--sigma-split", "inf"], "--sigma-split"),
        (["simulate", "--design", "uniform", "--sigma-max", "3", "--mu0", "nan"], "--mu0"),
        (["select", "--mu0", "0", "--sigma-split", "abc"], "--sigma-split"),
        (["select", "--mu0", "0", "--trim", "a,b"], "--trim"),
    ],
)
def test_non_finite_flag_is_usage_error(argv, flag, direct_csv, tmp_path, capsys):
    out = tmp_path / "o"
    if argv[0] != "simulate":
        argv = argv + ["--input", str(direct_csv)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {flag} " in err and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["select", "--mu0", "0", "--grid-size", "1"], "--grid-size must be at least 2, got 1"),
        (["deconv-fit", "--grid-size", "-3"], "--grid-size must be at least 2, got -3"),
        (["simulate", "--design", "uniform", "--sigma-max", "3", "--grid-size", "0"],
         "--grid-size must be at least 2, got 0"),
        (["deconv-fit", "--trim", "0.9,0.1"],
         "--trim bounds need 0 <= lower < upper <= 1, got 0.9,0.1"),
        (["select", "--mu0", "0", "--trim", "0.5,0.5"],
         "--trim bounds need 0 <= lower < upper <= 1, got 0.5,0.5"),
        (["select", "--mu0", "0", "--trim=-0.1,0.9"],
         "--trim bounds need 0 <= lower < upper <= 1, got -0.1,0.9"),
        (["select", "--mu0", "0", "--trim", "0.5"], "--trim expects two comma-separated values"),
        (["select", "--mu0", "0", "--alpha", "1.5"], "--alpha must lie in (0, 1), got 1.5"),
        (["rvalue", "--definition", "mu0", "--alpha", "0"], "--alpha must lie in (0, 1), got 0.0"),
        (["simulate", "--design", "uniform", "--sigma-max", "3", "--alpha", "1"],
         "--alpha must lie in (0, 1), got 1.0"),
        (["rvalue", "--definition", "mu0", "--alpha", "0.1", "--grid-points", "1"],
         "--grid-points must be at least 2, got 1"),
        (["simulate", "--design", "uniform", "--sigma-max", "3", "--reps", "0"],
         "--reps must be at least 1, got 0"),
    ],
)
def test_out_of_range_flag_is_usage_error(argv, message, tmp_path, capsys):
    # The input does not exist: the flag is rejected before any is read.
    out = tmp_path / "o"
    if argv[0] != "simulate":
        argv = argv + ["--input", str(tmp_path / "missing.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(out)])
    assert exc.value.code == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "definition, fixed, varied",
    [("mu0", ["--alpha", "0.1"], ["--mu0", "3"]), ("alpha", ["--mu0", "0"], ["--alpha", "0.1"])],
)
def test_rvalue_rejects_the_varied_parameter(definition, fixed, varied, direct_csv, tmp_path,
                                             capsys):
    # The definition varies one threshold over its grid; a value given for it
    # would be ignored by the scan and still written into the config block.
    out = tmp_path / "rv"
    argv = ["rvalue", "--input", str(direct_csv), "--output", str(out),
            "--definition", definition, *fixed, *varied]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {varied[0]} is the parameter --definition {definition} varies" in err
    assert f"give only {fixed[0]}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, table",
    [
        (["select", "--mu0", "0"], "selection.csv"),
        (["rvalue", "--definition", "mu0", "--alpha", "0.1", "--grid-points", "20"],
         "rvalues.csv"),
    ],
)
def test_trim_keeps_rows_in_step(argv, table, direct_csv, tmp_path):
    # The written (id, x, sigma) rows must be exactly the input rows whose
    # sigma lies within the trim percentiles, in input order and bit-exact.
    with open(direct_csv, newline="") as fh:
        rows = [(r["id"], float(r["x"]), float(r["sigma"])) for r in csv.DictReader(fh)]
    sigma = np.array([r[2] for r in rows])
    lo, hi = np.quantile(sigma, [0.1, 0.9])
    kept = [r for r in rows if lo <= r[2] <= hi]
    assert 0 < len(kept) < len(rows)
    cut = float(np.median([r[2] for r in kept]))
    out = tmp_path / "o"
    code = main(
        argv + ["--input", str(direct_csv), "--output", str(out),
                "--trim", "0.1,0.9", "--sigma-split", repr(cut)]
    )
    assert code == 0
    with open(out / table, newline="") as fh:
        written = [(r["id"], float(r["x"]), float(r["sigma"])) for r in csv.DictReader(fh)]
    assert written == kept


def _selected_flags(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [row["selected"] == "1" for row in reader]


class TestOtherCommands:
    def test_deconv_fit_artifact(self, direct_csv, tmp_path):
        out = tmp_path / "fit"
        assert main(["deconv-fit", "--input", str(direct_csv), "--output", str(out)]) == 0
        doc = json.loads((out / "prior_fit.json").read_text())
        assert "seed" not in doc["config"]
        fit = doc["fits"]["0"]
        assert fit["schema"] == "hetsel/prior-fit/v2"
        assert len(fit["nodes"]) == len(fit["weights"]) == 50
        assert abs(sum(fit["weights"]) - 1.0) < 1e-9

    def test_rvalue_mu0_requires_alpha(self, direct_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "rvalue",
                    "--input", str(direct_csv),
                    "--output", str(tmp_path / "rv"),
                    "--definition", "mu0",
                ]
            )
        assert exc.value.code == 2

    def test_rvalue_alpha_definition_requires_mu0(self, direct_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "rvalue",
                    "--input", str(direct_csv),
                    "--output", str(tmp_path / "rv"),
                    "--definition", "alpha",
                    "--alpha", "0.1",
                ]
            )
        assert exc.value.code == 2

    def test_rvalue_writes_tables(self, direct_csv, tmp_path):
        out = tmp_path / "rv"
        code = main(
            [
                "rvalue",
                "--input", str(direct_csv),
                "--output", str(out),
                "--definition", "mu0",
                "--alpha", "0.1",
                "--grid-points", "40",
            ]
        )
        assert code == 0
        doc = json.loads((out / "rvalues.json").read_text())
        assert doc["definition"] == "mu0" and doc["n_grid"] == 40
        assert 1 <= doc["largest_tie"] <= 120 and 1 <= doc["n_distinct_r"] <= 40
        header, *rows = (out / "rvalues.csv").read_text().splitlines()
        assert header == "id,x,sigma,r,r_prime,definition,grid_resolution"
        assert len(rows) == 120

    def test_simulate_deterministic(self, tmp_path):
        args = [
            "simulate",
            "--design", "uniform",
            "--sigma-max", "3",
            "--m", "200",
            "--reps", "2",
            "--seed", "7",
        ]
        assert main(args + ["--output", str(tmp_path / "s1")]) == 0
        assert main(args + ["--output", str(tmp_path / "s2")]) == 0
        a = (tmp_path / "s1" / "report.json").read_bytes()
        b = (tmp_path / "s2" / "report.json").read_bytes()
        assert a == b
        tidy = (tmp_path / "s1" / "report_tidy.csv").read_text().splitlines()
        assert tidy[0] == "design,method,metric,rep,value"
        assert len(tidy) == 1 + 4 * 4 * 2

    def test_simulate_config_keeps_cli_block(self, tmp_path):
        args = [
            "simulate",
            "--design", "uniform",
            "--sigma-max", "3",
            "--m", "200",
            "--reps", "1",
            "--seed", "7",
            "--output", str(tmp_path / "s"),
        ]
        assert main(args) == 0
        config = json.loads((tmp_path / "s" / "report.json").read_text())["config"]
        assert config["command"] == "simulate"
        assert config["master_seed"] == 7
        assert config["mu0"] == 0.0  # the design default, not the unset flag
        assert "sigma_split" in config and "trim" in config
        assert "threads" not in config and "oracle_n_mc" not in config

    def test_simulate_has_no_monte_carlo_option(self, tmp_path, capsys):
        # The oracle cutoffs are population quantities; nothing is drawn.
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--design", "uniform", "--sigma-max", "3", "--reps", "1",
                  "--oracle-nmc", "100000", "--output", str(tmp_path / "s")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --oracle-nmc" in capsys.readouterr().err

    def test_simulate_missing_design_flag(self, tmp_path):
        code = main(
            [
                "simulate",
                "--design", "two-component",
                "--output", str(tmp_path / "s"),
                "--reps", "1",
            ]
        )
        assert code == 1  # runtime validation: sigma2 required

    @pytest.mark.parametrize("points", ["1", "0", "-5"])
    @pytest.mark.parametrize("definition", ["mu0", "alpha"])
    def test_rvalue_one_point_grid_is_rejected(self, definition, points, direct_csv, tmp_path,
                                               capsys):
        out = tmp_path / "rv"
        fixed = ["--alpha", "0.1"] if definition == "mu0" else ["--mu0", "0"]
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "rvalue",
                    "--input", str(direct_csv),
                    "--output", str(out),
                    "--definition", definition,
                    *fixed,
                    "--grid-points", points,
                ]
            )
        assert exc.value.code == 2
        assert f"error: --grid-points must be at least 2, got {points}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_rejects_a_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "s"
        code = main(["simulate", "--design", "uniform", "--sigma-max", "3", "--m", "200",
                     "--reps", "1", "--seed", "-1", "--output", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert err["message"] == "master_seed must be non-negative, got -1"
        assert not out.exists()


@pytest.mark.parametrize("argv, files", [
    (["select", "--mu0", "0"],
     {"selection.csv", "summary.json", "selection_result.json", "trace.csv"}),
    (["rvalue", "--definition", "mu0", "--alpha", "0.1", "--grid-points", "20"],
     {"rvalues.csv", "rvalues.json"}),
    (["deconv-fit"], {"prior_fit.json"}),
    (["simulate", "--design", "uniform", "--sigma-max", "3", "--m", "200", "--reps", "1"],
     {"report.json", "report_tidy.csv"}),
])
def test_each_command_writes_its_files(argv, files, direct_csv, tmp_path):
    out = tmp_path / "out"
    given = [] if argv[0] == "simulate" else ["--input", str(direct_csv)]
    assert main(argv + given + ["--output", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == files


@pytest.mark.parametrize("argv, files, config", [
    (["select", "--mu0", "0", "--sigma-split", "1.5", "--trim", "0.01,0.99"],
     ["summary.json", "selection_result.json"],
     {"alpha": 0.1, "command": "select", "grid_size": 50, "mu0": 0.0, "sigma_split": [1.5],
      "trim": [0.01, 0.99]}),
    (["rvalue", "--definition", "mu0", "--alpha", "0.1"], ["rvalues.json"],
     {"alpha": 0.1, "command": "rvalue", "grid_size": 50, "mu0": None, "sigma_split": [],
      "trim": None}),
    (["rvalue", "--definition", "alpha", "--mu0", "0"], ["rvalues.json"],
     {"alpha": None, "command": "rvalue", "grid_size": 50, "mu0": 0.0, "sigma_split": [],
      "trim": None}),
    (["deconv-fit"], ["prior_fit.json"],
     {"alpha": 0.1, "command": "deconv-fit", "grid_size": 50, "mu0": None, "sigma_split": [],
      "trim": None}),
    (["simulate", "--design", "correlated", "--sigma", "1", "--m", "2000", "--reps", "2"],
     ["report.json"],
     {"alpha": 0.1, "command": "simulate", "design": "correlated(sigma=1.0, m=2000)",
      "grid_size": 50, "master_seed": 0, "mu0": 1.0, "reps": 2, "sigma_split": [],
      "trim": None}),
])
def test_config_block_of_each_command(argv, files, config, direct_csv, tmp_path):
    # Every flag reaches the config block, and a command without a flag
    # records the setting it does not take as unset.
    out = tmp_path / "out"
    given = [] if argv[0] == "simulate" else ["--input", str(direct_csv)]
    assert main(argv + given + ["--output", str(out)]) == 0
    for name in files:
        assert json.loads((out / name).read_text())["config"] == config, name


@pytest.mark.parametrize(
    "design, param",
    [
        (["--design", "uniform", "--sigma-max", "inf"], "sigma_max"),
        (["--design", "two-component", "--sigma2", "nan"], "sigma2"),
        (["--design", "two-component", "--sigma2", "inf"], "sigma2"),
        (["--design", "correlated", "--sigma", "nan"], "sigma"),
        (["--design", "correlated", "--sigma", "inf"], "sigma"),
    ],
)
def test_simulate_rejects_non_finite_parameter(design, param, tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(
        ["simulate", *design, "--m", "200", "--reps", "1", "--output", str(out)]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    err = json.loads(captured.err)["error"]
    assert err["type"] == "ValueError"
    assert err["message"].startswith(f"{param} must ")
    assert not out.exists()


@pytest.mark.parametrize(
    "design", [["two-component", "--sigma2", "2"], ["uniform", "--sigma-max", "3"],
               ["correlated", "--sigma", "1"]],
)
def test_simulate_rejects_zero_units(design, tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(
        ["simulate", "--design", *design, "--m", "0", "--reps", "1",
         "--output", str(out)]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError"
    assert err["message"].startswith("m must be")
    assert not out.exists()


_SCIPY_FREE_SCRIPT = """
import json, sys
from hetsel.cli import main
data, out = sys.argv[1], sys.argv[2]
runs = [
    ["select", "--input", data, "--output", out + "/sel", "--mu0", "0"],
    ["rvalue", "--input", data, "--output", out + "/rv", "--definition", "mu0",
     "--alpha", "0.1", "--grid-points", "20"],
    ["deconv-fit", "--input", data, "--output", out + "/fit"],
]
codes = [main(argv) for argv in runs]
before = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
codes.append(main(["simulate", "--design", "uniform", "--sigma-max", "3", "--m", "200",
                   "--reps", "2", "--seed", "3", "--output", out + "/sim"]))
print(json.dumps({"codes": codes, "scipy": before, "scipy_after": "scipy" in sys.modules,
                  "multiprocessing": "multiprocessing" in sys.modules}))
"""


_LAZY_SCRIPT = """
import json, sys
import hetsel.cli
loaded = sorted(m for m in ("hetsel.law", "hetsel.sim", "hetsel.rvalue") if m in sys.modules)
from hetsel.cli import main
data, out = sys.argv[1], sys.argv[2]
codes = [main(["select", "--input", data, "--output", out + "/sel", "--mu0", "0"])]
after_select = "numpy.ma" in sys.modules
codes.append(main(["rvalue", "--input", data, "--output", out + "/rv", "--definition", "mu0",
                   "--alpha", "0.1", "--grid-points", "20"]))
ma_rvalue = "numpy.ma" in sys.modules
codes.append(main(["rvalue", "--input", data, "--output", out + "/rva", "--definition", "alpha",
                   "--mu0", "0", "--grid-points", "20"]))
codes.append(main(["deconv-fit", "--input", data, "--output", out + "/fit"]))
law_data_driven = "hetsel.law" in sys.modules
cutoffs_in_selection = [n for n in ("_Table", "oracle_thresholds")
                        if hasattr(sys.modules["hetsel.selection"], n)]
codes.append(main(["simulate", "--design", "uniform", "--sigma-max", "3", "--m", "200",
                   "--reps", "1", "--seed", "3", "--output", out + "/sim"]))
law_simulate = "hetsel.law" in sys.modules
import hetsel
print(json.dumps({"codes": codes, "loaded": loaded, "ma_select": after_select,
                  "ma_rvalue": ma_rvalue, "law_data_driven": law_data_driven,
                  "cutoffs_in_selection": cutoffs_in_selection,
                  "law_simulate": law_simulate,
                  "lazy_name": hetsel.run_replications.__module__,
                  "law_name": hetsel.TruePrior.__module__,
                  "cutoffs_name": hetsel.oracle_thresholds.__module__,
                  "oracle_name": hetsel.oracle_clfdr.__module__}))
"""


def test_commands_load_only_what_runs(direct_csv, tmp_path):
    # import hetsel.cli loads neither the known law, nor the simulation,
    # nor the r-value module; select and rvalue --definition mu0 never
    # import numpy.ma; only simulate loads the known law and its oracle
    # cutoffs, which the selection module does not define; and the package
    # still serves the lazily loaded names from their modules.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCRIPT, str(direct_csv), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0] * 5, "loaded": [], "ma_select": False, "ma_rvalue": False,
                      "law_data_driven": False, "cutoffs_in_selection": [],
                      "law_simulate": True, "lazy_name": "hetsel.sim",
                      "law_name": "hetsel.law", "cutoffs_name": "hetsel.law",
                      "oracle_name": "hetsel.deconv"}


# The package's own imports, module by module: the estimator and the rules
# on data import no other module, the known law and its cutoffs sit on top
# of them, and only the simulation and the CLI reach further. "hetsel" is
# the package itself.
_IMPORT_GRAPH = {
    "__init__": set(),
    "model": set(),
    "deconv": set(),
    "selection": set(),
    "rvalue": {"selection"},
    "law": {"deconv", "model", "selection"},
    "sim": {"deconv", "law", "model", "selection"},
    "cli": {"deconv", "model", "selection", "rvalue", "sim", "hetsel"},
}


def _package_imports(path):
    """Every module of the package that a source file imports, at module
    level or inside a function, relative or absolute."""
    tree = ast.parse(open(path, encoding="utf-8").read(), filename=path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.add(node.module or "hetsel")
            elif (node.module or "").split(".")[0] == "hetsel":
                found.add(node.module.partition(".")[2] or "hetsel")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hetsel":
                    found.add(alias.name.partition(".")[2] or "hetsel")
    return found


def test_modules_import_only_their_allowed_neighbours():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "hetsel")
    graph = {
        os.path.basename(path)[:-3]: _package_imports(path)
        for path in glob.glob(os.path.join(src, "*.py"))
    }
    assert graph == _IMPORT_GRAPH


_NAMES_SCRIPT = """
import importlib, json, sys
import hetsel
try:
    hetsel._x
except AttributeError as exc:
    private = str(exc)
private_loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("hetsel."))
listed = dir(hetsel)
modules = [importlib.import_module("hetsel." + m)
           for m in ("model", "deconv", "selection", "rvalue", "law", "sim")]
names = [n for module in modules for n in module.__all__]
wrong = [n for module in modules for n in module.__all__
         if getattr(hetsel, n) is not getattr(module, n)]
print(json.dumps({"private": private, "private_loaded": private_loaded,
                  "cli_loaded": "hetsel.cli" in sys.modules, "n_names": len(names),
                  "repeated": sorted({n for n in names if names.count(n) > 1}),
                  "wrong": wrong, "unlisted": sorted(set(names) - set(listed)),
                  "uncached": [n for n in names if n not in vars(hetsel)],
                  "methods": list(hetsel.METHODS)}))
"""


def test_package_serves_every_public_name():
    # The package serves each name in the six library modules' __all__,
    # declared in one module only, as that module's object, and caches it;
    # dir lists them all without loading cli; a private name loads nothing.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", _NAMES_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"private": "module 'hetsel' has no attribute '_x'", "private_loaded": [],
                      "cli_loaded": False, "n_names": 50, "repeated": [], "wrong": [],
                      "unlisted": [], "uncached": [], "methods": ["DD", "OR", "Clfdr", "BH"]}


def test_commands_do_not_load_scipy(direct_csv, tmp_path):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_SCRIPT, str(direct_csv), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    assert report["scipy"] == []
    # simulate's known-prior oracle uses numpy's erfc kernel, not scipy.
    assert not report["scipy_after"]
    # simulate runs its replicates in this process.
    assert not report["multiprocessing"]


_BLAS_SCRIPT = """
import json, os, sys
import hetsel
numpy_after_hetsel = "numpy" in sys.modules
import hetsel.cli
print(json.dumps({"numpy": numpy_after_hetsel,
                  "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "omp": os.environ.get("OMP_NUM_THREADS")}))
"""


def _env_without_blas_settings(**settings):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return dict(env, PYTHONPATH=os.path.abspath(src), **settings)


@pytest.mark.parametrize("settings, want", [
    ({}, {"openblas": "1", "omp": None}),
    ({"OPENBLAS_NUM_THREADS": "2"}, {"openblas": "2", "omp": None}),
    ({"OMP_NUM_THREADS": "2"}, {"openblas": None, "omp": "2"}),
])
def test_cli_runs_blas_on_one_thread_unless_told(settings, want):
    # import hetsel loads no numpy, so hetsel.cli can still set the BLAS
    # thread count before numpy loads OpenBLAS.
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_SCRIPT], env=_env_without_blas_settings(**settings),
        capture_output=True, text=True, timeout=300, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == {"numpy": False, **want}


_ENTRY_SCRIPT = """
import gc, json, sys
from hetsel.cli import main
sys.argv = ["hetsel", "select", "--input", sys.argv[1], "--output", sys.argv[2], "--mu0", "0"]
code = main()
print(json.dumps({"code": code, "frozen": gc.get_freeze_count()}))
"""


def test_console_entry_freezes_the_start_up_heap(direct_csv, tmp_path):
    # main() on the process's own arguments moves the objects alive at
    # start-up into the collector's permanent generation, and writes the
    # artifacts that main(argv) writes in process.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY_SCRIPT, str(direct_csv), str(tmp_path / "entry")],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0 and report["frozen"] > 0
    argv = ["select", "--input", str(direct_csv), "--output", str(tmp_path / "argv"), "--mu0", "0"]
    assert main(argv) == 0
    assert _artifacts(tmp_path / "entry") == _artifacts(tmp_path / "argv")


def test_main_with_argv_leaves_the_collector_alone(direct_csv, tmp_path):
    before = gc.get_freeze_count()
    argv = ["select", "--input", str(direct_csv), "--output", str(tmp_path / "o"), "--mu0", "0"]
    assert main(argv) == 0
    assert gc.get_freeze_count() == before


def _artifacts(directory):
    out = {}
    for root, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


def test_artifacts_do_not_depend_on_blas_threads(direct_csv, tmp_path):
    # The BLAS thread count may change how fast select and simulate run,
    # never what they write.
    runs = [
        ["select", "--input", str(direct_csv), "--mu0", "0"],
        ["simulate", "--design", "correlated", "--sigma", "1", "--m", "400", "--reps", "3",
         "--seed", "5"],
    ]
    got = []
    for settings in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        out = tmp_path / f"blas{len(got)}"
        env = _env_without_blas_settings(**settings)
        for i, argv in enumerate(runs):
            subprocess.run(
                [sys.executable, "-m", "hetsel.cli", *argv, "--output", str(out / str(i))],
                env=env, capture_output=True, timeout=300, check=True,
            )
        got.append(_artifacts(out))
    assert len(got[0]) == 6
    assert got[0] == got[1]
