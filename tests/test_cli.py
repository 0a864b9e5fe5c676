"""End-to-end command-line behavior via in-process main() calls."""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from evfront import cli, detect, pipeline, surface
from evfront.events import SensorGeometry, parse_events
from evfront.surface import read_mcts

from conftest import traced_peak


def _synth(tmp_path, name="ev.bin", extra=()):
    out = tmp_path / name
    rc = cli.main(["synth", "--pattern", "grid-of-corners",
                   "--velocity=-56,-42", "--duration", "0.3",
                   "--geometry", "64x64", "--grid-pitch", "32",
                   "--square-side", "12", "-o", str(out), *extra])
    assert rc == 0
    return out


class TestSynth:
    def test_writes_parseable_stream(self, tmp_path, capsys):
        out = _synth(tmp_path)
        stdout = capsys.readouterr().out
        assert "wrote" in stdout and "spanning" in stdout
        batch = parse_events(out.read_bytes(), "binary-v1")
        assert len(batch) > 0
        assert batch.geometry == SensorGeometry(64, 64)

    def test_zero_velocity_is_usage_error(self, tmp_path):
        rc = cli.main(["synth", "--velocity", "0,0",
                       "-o", str(tmp_path / "x.bin")])
        assert rc == 2

    @pytest.mark.parametrize("velocity", ["inf,40", "nan,40", "40,-inf"])
    def test_non_finite_velocity_is_usage_error(self, tmp_path, capsys,
                                                velocity):
        rc = cli.main(["synth", "--pattern", "grid-of-corners",
                       "--velocity", velocity, "-o", str(tmp_path / "x.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "finite" in err and "internal error" not in err
        assert not (tmp_path / "x.bin").exists()

    @pytest.mark.parametrize("sizes", [
        ["--grid-pitch", "0", "--square-side=-1"], ["--square-side", "0"]])
    def test_square_side_below_one_is_usage_error(self, tmp_path, capsys,
                                                  sizes):
        out = tmp_path / "x.bin"
        rc = cli.main(["synth", "--pattern", "grid-of-corners", *sizes,
                       "-o", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "square side" in err and "internal error" not in err
        assert not out.exists()

    def test_patternless_motion_yields_empty_exit(self, tmp_path):
        # a vertical edge moving only in y sweeps no columns
        rc = cli.main(["synth", "--pattern", "vertical-edge",
                       "--velocity", "0,50", "-o", str(tmp_path / "x.bin")])
        assert rc == 3

    def test_start_time_past_stamp_range_is_usage_error(self, tmp_path):
        rc = cli.main(["synth", "--duration", "0.2", "--start-time",
                       str(2**62), "-o", str(tmp_path / "x.bin")])
        assert rc == 2

    def test_start_time_past_int64_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["synth", "--duration", "0.2", "--start-time",
                       str(2**63), "-o", str(tmp_path / "x.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "start time" in err and "internal error" not in err

    def test_side_past_u16_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.bin"
        with pytest.raises(SystemExit) as exc:  # rejected by the parser
            cli.main(["synth", "--geometry", "70000x5", "-o", str(out)])
        assert exc.value.code == 2
        assert "1 to 65535" in capsys.readouterr().err
        conf = tmp_path / "synth.conf"
        conf.write_text("geometry = 70000x5\n")
        rc = cli.main(["--config", str(conf), "synth", "-o", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: config line 1")
        assert not out.exists()

    def test_negative_velocity_needs_equals_form(self, tmp_path):
        rc = cli.main(["synth", "--velocity=-100,0", "--duration", "0.2",
                       "-o", str(tmp_path / "x.bin")])
        assert rc == 0

    def test_writes_the_records_without_copying_them(self, tmp_path):
        # the flood-240 scene: the header and then the records' own
        # buffer are written, so no second copy of the file is made
        rc, peak = _main_peak([
            "synth", "--pattern", "grid-of-corners", "--duration", "0.5",
            "--geometry", "240x180", "--velocity=-300,-225",
            "--grid-pitch", "12", "--square-side", "5",
            "-o", str(tmp_path / "flood.bin")])
        size = (tmp_path / "flood.bin").stat().st_size
        assert rc == 0 and size == 8 + 13 * 763_800
        assert peak < 1.2 * size, (peak, size)


class TestConvert:
    def test_binary_csv_binary_identity(self, tmp_path):
        src = _synth(tmp_path)
        as_csv = tmp_path / "ev.csv"
        back = tmp_path / "ev2.bin"
        assert cli.main(["convert", "-i", str(src), "-o", str(as_csv),
                         "--from-format", "binary-v1",
                         "--to-format", "csv"]) == 0
        assert cli.main(["convert", "-i", str(as_csv), "-o", str(back),
                         "--from-format", "csv", "--to-format", "binary-v1",
                         "--geometry", "64x64"]) == 0
        assert back.read_bytes() == src.read_bytes()

    def test_csv_input_without_geometry(self, tmp_path):
        src = _synth(tmp_path)
        as_csv = tmp_path / "ev.csv"
        cli.main(["convert", "-i", str(src), "-o", str(as_csv),
                  "--from-format", "binary-v1", "--to-format", "csv"])
        rc = cli.main(["convert", "-i", str(as_csv),
                       "-o", str(tmp_path / "back.bin"),
                       "--from-format", "csv", "--to-format", "binary-v1"])
        assert rc == 2

    def test_unknown_format_rejected(self, tmp_path):
        src = _synth(tmp_path)
        rc = cli.main(["convert", "-i", str(src), "-o", str(tmp_path / "o"),
                       "--from-format", "binary-v1", "--to-format", "avro"])
        assert rc == 2

    def test_stamp_past_u64_is_usage_error_at_its_line(self, tmp_path,
                                                       capsys):
        src = tmp_path / "big.csv"
        src.write_text("t,x,y,p\n5,0,0,1\n18446744073709551616,0,0,1\n")
        rc = cli.main(["convert", "-i", str(src), "-o", str(tmp_path / "o"),
                       "--from-format", "csv", "--to-format", "binary-v1",
                       "--geometry", "4x4"])
        assert rc == 2
        assert "(line 3)" in capsys.readouterr().err

    def test_malformed_input_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOPE" + b"\x00" * 16)
        rc = cli.main(["convert", "-i", str(bad), "-o", str(tmp_path / "o"),
                       "--from-format", "binary-v1", "--to-format", "csv"])
        assert rc == 2


class TestInputErrors:
    @pytest.mark.parametrize("command", [
        ["convert", "-o", "o", "--from-format", "binary-v1",
         "--to-format", "csv"],
        ["surface", "-o", "s"], ["run", "--mode", "serial"]])
    def test_one_format_for_a_bad_input(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"EVT1\x04\x00\x04\x00" + b"\x00" * 5)
        rc = cli.main([*command, "-i", str(bad)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: truncated record (byte offset 8)\n")
        rc = cli.main([*command, "-i", str(tmp_path / "absent.bin")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {tmp_path / 'absent.bin'}: ")

    def test_binary_input_is_mapped_not_read(self, tmp_path):
        # the batch is a read-only view of the mapped file: the heap holds
        # only the record check's temporaries, not the file's bytes
        src = _synth(tmp_path, extra=[
            "--duration", "0.5", "--geometry", "240x180",
            "--velocity=-300,-225", "--grid-pitch", "12",
            "--square-side", "5"])
        peak = traced_peak(lambda: cli._read_batch(str(src)))
        size = src.stat().st_size
        assert size > 1_000_000
        assert peak < 0.2 * size, (peak, size)
        batch = cli._read_batch(str(src))
        assert not batch.events.flags.writeable
        assert batch.events.tobytes() == src.read_bytes()[8:]


class TestSurface:
    def test_writes_channel_images_and_dump(self, tmp_path, capsys):
        src = _synth(tmp_path)
        prefix = tmp_path / "surf"
        rc = cli.main(["surface", "-i", str(src), "-o", str(prefix),
                       "--counts", "0.03,0.1"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "realized_durations_us=" in stdout
        pgms = sorted(tmp_path.glob("surf_ch*.pgm"))
        assert len(pgms) == 4
        for p in pgms:
            assert p.read_bytes().startswith(b"P5\n64 64\n65535\n")
        tensor = read_mcts((tmp_path / "surf.mcts").read_bytes())
        assert tensor.channels.shape == (4, 64, 64)

    def test_tau_before_first_event(self, tmp_path):
        src = _synth(tmp_path, extra=["--start-time", "1000"])
        rc = cli.main(["surface", "-i", str(src), "-o",
                       str(tmp_path / "s"), "--tau", "500"])
        assert rc == 2

    def test_tau_outside_stamp_range(self, tmp_path):
        src = _synth(tmp_path)
        for tau in (str(2**62), "-1"):
            rc = cli.main(["surface", "-i", str(src), "-o",
                           str(tmp_path / "s"), "--mode", "fixed-duration",
                           "--durations", "1000", f"--tau={tau}"])
            assert rc == 2

    def test_fixed_duration_needs_durations(self, tmp_path):
        src = _synth(tmp_path)
        rc = cli.main(["surface", "-i", str(src), "-o", str(tmp_path / "s"),
                       "--mode", "fixed-duration"])
        assert rc == 2

    def test_bad_window_lists_are_usage_errors(self, tmp_path, capsys):
        src = _synth(tmp_path)
        for flags, why in (
                (["--mode", "fixed-duration", "--durations", "0"],
                 "positive durations"),
                (["--counts", "0.1,0.1"], "strictly increasing"),
                (["--mode", "sliding"], "unknown window mode")):
            rc = cli.main(["surface", "-i", str(src), "-o",
                           str(tmp_path / "s"), *flags])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and why in err

    @pytest.mark.parametrize("counts", ["nan,1", "1,inf"])
    def test_non_finite_counts_are_usage_errors(self, tmp_path, capsys,
                                                counts):
        src = _synth(tmp_path)
        rc = cli.main(["surface", "-i", str(src), "-o", str(tmp_path / "s"),
                       "--counts", counts])
        assert rc == 2
        err = capsys.readouterr().err
        assert "finite" in err and "internal error" not in err


def _main_peak(argv):
    """cli.main(argv) under tracemalloc: (exit code, peak bytes); the
    parser's own rejections exit 2 by SystemExit."""
    codes = []

    def main():
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)

    peak = traced_peak(main)
    return codes[0], peak


class TestWindowCountsPastTheStream:
    """A window count far past the stream sizes the event ring by the
    stream, not by the count: 100000 events per pixel would be 12.2 GiB
    at 128x128, 1e300 more than numpy can allocate, and 1e308 times the
    pixel count overflows a float."""

    def _stream(self, tmp_path):
        # 128x128 corner grid, far fewer than 3 events per pixel
        return _synth(tmp_path, extra=[
            "--geometry", "128x128", "--grid-pitch", "48",
            "--square-side", "16", "--duration", "0.2"])

    def _frames(self, path):
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows:
            del row["timings"]
        return rows

    @pytest.mark.parametrize("top", ["100000", "1e300", "1e308"])
    def test_run_matches_a_count_the_stream_exceeds(self, tmp_path, top):
        src = self._stream(tmp_path)
        assert len(parse_events(src.read_bytes(), "binary-v1")) < 3 * 128 ** 2
        frames = []
        for count in (top, "3"):
            out = tmp_path / f"r{count}.jsonl"
            rc, peak = _main_peak(["run", "-i", str(src), "--mode", "serial",
                                   "--counts", f"0.1,0.2,0.3,{count}",
                                   "--results", str(out)])
            assert rc == 0 and peak < 8 << 20, (count, peak)
            frames.append(self._frames(out))
        assert len(frames[0]) > 5
        assert frames[0] == frames[1]

    def test_surface_with_a_count_past_the_stream(self, tmp_path):
        src = self._stream(tmp_path)
        rc, peak = _main_peak(["surface", "-i", str(src), "-o",
                               str(tmp_path / "s"), "--counts", "1e300"])
        assert rc == 0 and peak < 8 << 20, peak
        tensor = read_mcts((tmp_path / "s.mcts").read_bytes())
        assert tensor.channels.shape == (2, 128, 128)


class TestRun:
    def test_serial_classical_full_outputs(self, tmp_path, capsys):
        src = _synth(tmp_path)
        results = tmp_path / "r.jsonl"
        metrics = tmp_path / "m.json"
        timings = tmp_path / "t.csv"
        rc = cli.main(["run", "-i", str(src), "--mode", "serial",
                       "--channel-pair", "3", "--results", str(results),
                       "--metrics", str(metrics), "--timings-csv",
                       str(timings), "--metrics-interval", "100000"])
        assert rc == 0
        assert "results=" in capsys.readouterr().out
        rows = [json.loads(line) for line in
                results.read_text().splitlines()]
        assert len(rows) >= 2
        assert all("descriptors" in row for row in rows)
        m = json.loads(metrics.read_text())
        assert m["error"] is None
        assert m["events_applied"] > 0
        header = timings.read_text().splitlines()[0]
        assert header == ("interval_start_us,mcts_preparation,"
                          "keypoint_detection,matching,total")

    def test_out_of_range_options_are_usage_errors(self, tmp_path, capsys):
        src = _synth(tmp_path)
        for option in (["--channel-pair", "7"], ["--channel-pair=-1"],
                       ["--nms-radius", "0"]):
            rc = cli.main(["run", "-i", str(src), "--mode", "serial",
                           *option])
            assert rc == 2, option
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("option", [
        ["--metrics-interval", "0"], ["--nms-max-k=-1"],
        ["--detector", "learned", "--weights-seed=-1"],
        ["--detector", "magic"], ["--nms-threshold", "nan"],
        ["--max-distance", "nan"]])
    def test_bad_values_fail_before_the_run(self, tmp_path, capsys,
                                            monkeypatch, option):
        src = _synth(tmp_path)
        monkeypatch.setattr(pipeline, "run_frames", None)  # never reached
        rc = cli.main(["run", "-i", str(src), "--mode", "serial", *option])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_watermark_lag_is_no_option(self, tmp_path, capsys):
        # the writer applies every arrival; _USAGE_CASES has the config key
        src = _synth(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "-i", str(src), "--watermark-lag", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --watermark-lag 5" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("option", [
        ["--counts", "nan,1"], ["--counts", "1,inf"],
        ["--tick", "99999999999999999999"]])
    def test_non_finite_windows_and_huge_ticks_are_usage_errors(
            self, tmp_path, capsys, monkeypatch, option):
        src = _synth(tmp_path)
        monkeypatch.setattr(pipeline, "run_frames", None)  # never reached
        rc = cli.main(["run", "-i", str(src), "--mode", "serial", *option])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "internal error" not in err

    def test_metrics_json_fields_in_declared_order(self, tmp_path,
                                                  monkeypatch):
        real_drain = pipeline.drain
        runs = []

        def recording_drain(*args):
            runs.append(real_drain(*args))
            return runs[-1]

        monkeypatch.setattr(pipeline, "drain", recording_drain)
        src = _synth(tmp_path)
        metrics = tmp_path / "m.json"
        rc = cli.main(["run", "-i", str(src), "--mode", "serial",
                       "--channel-pair", "3", "--metrics", str(metrics),
                       "--metrics-interval", "100000"])
        assert rc == 0
        (m,) = runs
        want = {name: getattr(m, name) for name in (
            "results_emitted", "versions_applied", "events_applied",
            "mean_stage_us", "max_stage_us", "iteration_rate_hz",
            "mean_staleness_us", "max_staleness_us", "writer_stall_us",
            "writer_cpu_us", "frontend_cpu_us", "cpu_over_wall",
            "snapshot_copy_mean_us", "snapshot_copy_max_us", "intervals",
            "error")}
        assert m.intervals and m.mean_stage_us
        assert metrics.read_text() == json.dumps(want, indent=2) + "\n"

    def test_memory_does_not_grow_with_the_stream(self, tmp_path):
        # 1 s and 4 s of the acceptance corner grid: each result is written
        # as its frame is emitted and only the frame before is held, so the
        # two runs peak within one frame's working set of each other. A
        # run that kept every frame and joined the lines at its end grew
        # by about 6 MB from the one to the other
        peaks = []
        for seconds in ("1", "4"):
            src = _synth(tmp_path, f"{seconds}.bin", extra=[
                "--duration", seconds, "--geometry", "128x128",
                "--grid-pitch", "48", "--square-side", "16"])
            rc, peak = _main_peak(["run", "-i", str(src), "--mode", "serial",
                                   "--channel-pair", "3", "--results",
                                   str(tmp_path / f"{seconds}.jsonl")])
            assert rc == 0
            peaks.append(peak)
        batch = cli._read_batch(str(src))
        config = pipeline.PipelineConfig(channel_pair=3)
        state = pipeline.SharedSurfaceState(batch.geometry, len(batch) + 1)
        surface.apply_events(state.grid, state.ring, batch)
        snap = pipeline.Snapshot(state.grid, state.ring, 1)
        frame = traced_peak(lambda: pipeline.frontend_step(snap, None, config))
        assert abs(peaks[1] - peaks[0]) < frame, (peaks, frame)

    def test_no_descriptors_flag(self, tmp_path):
        src = _synth(tmp_path)
        results = tmp_path / "r.jsonl"
        rc = cli.main(["run", "-i", str(src), "--mode", "serial",
                       "--no-descriptors", "--results", str(results)])
        assert rc == 0
        rows = [json.loads(line) for line in
                results.read_text().splitlines()]
        assert all("descriptors" not in row for row in rows)

    def test_learned_crops_to_cell_multiple(self, tmp_path, capsys):
        out = tmp_path / "odd.bin"
        assert cli.main(["synth", "--pattern", "grid-of-corners",
                         "--velocity", "40,30", "--duration", "0.3",
                         "--geometry", "100x100", "-o", str(out)]) == 0
        rc = cli.main(["run", "-i", str(out), "--mode", "serial",
                       "--detector", "learned", "--weights-seed", "7",
                       "--nms-threshold", "0.0"])
        assert rc in (0, 3)
        assert "cropped stream to 96x96" in capsys.readouterr().out

    def test_learned_channel_count_mismatch(self, tmp_path, capsys):
        src = _synth(tmp_path)
        capsys.readouterr()
        rc = cli.main(["run", "-i", str(src), "--detector", "learned",
                       "--weights-seed", "1", "--counts", "0.1,0.3"])
        assert rc == 2
        assert capsys.readouterr().err == ("error: 2 channel pairs feed 4 "
                                           "channels, weights expect 8\n")

    def test_empty_stream_exits_three(self, tmp_path):
        src = tmp_path / "none.bin"
        cli.main(["synth", "--pattern", "vertical-edge", "--velocity",
                  "0,50", "-o", str(src)])
        rc = cli.main(["run", "-i", str(src), "--mode", "serial"])
        assert rc == 3

    def test_nms_radius_past_the_plane(self, tmp_path):
        # on a 64x64 plane every radius from 63 up gives the same output
        src = _synth(tmp_path)
        rows = []
        for radius in ("100000", "63"):
            results = tmp_path / f"r{radius}.jsonl"
            rc = cli.main(["run", "-i", str(src), "--mode", "serial",
                           "--nms-radius", radius, "--results",
                           str(results)])
            assert rc == 0
            rows.append([{k: v for k, v in json.loads(line).items()
                          if k != "timings"}
                         for line in results.read_text().splitlines()])
        assert rows[0] and rows[0] == rows[1]

    def test_weights_declaring_huge_widths_are_usage_errors(self, tmp_path,
                                                            capsys):
        # a 44-byte SLWT header declaring widths of 2**20 and no tensors
        weights = tmp_path / "huge.slwt"
        weights.write_bytes(b"SLWT" + np.array(
            [1, 8, 4, 2**20, 2**20, 2**20, 2**20, 64, 16], "<u4").tobytes()
            + np.float32(1e-5).astype("<f4").tobytes())
        rc = cli.main(["run", "-i", str(_synth(tmp_path)), "--mode",
                       "serial", "--detector", "learned", "--weights",
                       str(weights)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad weights file")
        assert "truncated" in err

    @pytest.mark.parametrize("name, value", [
        ("descriptor_kernel", np.nan), ("layer 0 conv_kernels", np.inf)])
    def test_non_finite_weights_are_usage_errors(self, tmp_path, capsys,
                                                 name, value):
        # layer 0's kernel opens the tensors after the 44-byte header; the
        # descriptor kernel's last value precedes the 64 descriptor biases
        blob = bytearray(detect.save_weights(
            detect.random_weights(detect.NetworkSpec(), 0)))
        at = 44 if name.startswith("layer") else len(blob) - 4 * 65
        blob[at:at + 4] = np.float32(value).astype("<f4").tobytes()
        weights = tmp_path / "bad.slwt"
        weights.write_bytes(bytes(blob))
        rc = cli.main(["run", "-i", str(_synth(tmp_path)), "--mode",
                       "serial", "--detector", "learned", "--weights",
                       str(weights)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: bad weights file: {name} holds a NaN or infinite "
            "value\n")

    def test_source_failure_mid_run_is_internal_error(self, tmp_path,
                                                      capsys, monkeypatch):
        # the threaded writer fails at its third version; the lines of the
        # frames emitted before it stay in the results
        src = _synth(tmp_path)
        results = tmp_path / "r.jsonl"
        real_apply = pipeline.apply_events
        calls = []

        def failing_apply(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("source lost")
            return real_apply(*args)

        monkeypatch.setattr(pipeline, "apply_events", failing_apply)
        capsys.readouterr()
        assert cli.main(["run", "-i", str(src), "--results",
                         str(results)]) == 1
        out, err = capsys.readouterr()
        assert err == ("internal error: RuntimeError: source failed mid-run: "
                       "RuntimeError: source lost\n")
        rows = [json.loads(line) for line in results.read_text().splitlines()]
        assert out.startswith(f"results={len(rows)} versions=2 ")
        assert rows and {row["version"] for row in rows} <= {1, 2}

    @pytest.mark.parametrize("option", ["--results", "--metrics",
                                        "--timings-csv"])
    def test_unwritable_output_fails_before_the_run(self, tmp_path, capsys,
                                                    monkeypatch, option):
        src = _synth(tmp_path)
        monkeypatch.setattr(pipeline, "drain", None)  # never called
        out = tmp_path / "no" / "dir" / "out"
        capsys.readouterr()
        rc = cli.main(["run", "-i", str(src), "--mode", "serial", option,
                       str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {out}: ")
        # the patched name is the one a run calls: a writable path gets
        # that far and fails on it
        rc = cli.main(["run", "-i", str(src), "--mode", "serial", option,
                       str(tmp_path / "out")])
        assert rc == 1
        assert "'NoneType' object is not callable" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, paced, err", [
        ("bogus", False, "error: unknown mode 'bogus'\n"),
        ("serial", True, "error: paced replay needs threaded mode\n")],
        ids=["unknown", "paced-serial"])
    def test_bad_mode_fails_before_any_output(self, tmp_path, capsys,
                                              mode, paced, err):
        src = _synth(tmp_path)
        outputs = [tmp_path / name for name in ("r.jsonl", "m.json", "t.csv")]
        capsys.readouterr()
        rc = cli.main(["run", "-i", str(src), "--mode", mode,
                       *(["--paced"] if paced else []),
                       "--results", str(outputs[0]), "--metrics",
                       str(outputs[1]), "--timings-csv", str(outputs[2])])
        assert (rc, capsys.readouterr().err) == (2, err)
        assert not any(path.exists() for path in outputs)


# Option and input faults no other test reaches: label -> (files to write
# into the test's directory, argv, exit code, start of stderr). {src} is a
# valid stream, {dir} the test's directory.
_RUN_SERIAL = ["run", "-i", "{src}", "--mode", "serial"]
_USAGE_CASES = {
    "unknown run mode": (
        {}, ["run", "-i", "{src}", "--mode", "bogus"], 2,
        "error: unknown mode 'bogus'\n"),
    "surface of an empty stream": (
        {"e.bin": b"EVT1\x04\x00\x04\x00"},
        ["surface", "-i", "{dir}/e.bin", "-o", "{dir}/s"], 2,
        "error: input stream is empty\n"),
    "learned stream narrower than a cell": (
        {"n.bin": b"EVT1\x08\x00\x40\x00"},
        ["run", "-i", "{dir}/n.bin", "--detector", "learned"], 2,
        "error: stream 8x64 smaller than one 16px cell\n"),
    "unreadable weights": (
        {}, [*_RUN_SERIAL, "--detector", "learned", "--weights",
             "{dir}/absent.slwt"], 2,
        "error: cannot read weights: "),
    "config boolean off": (
        {"run.conf": b"paced = off\n"}, ["--config", "{dir}/run.conf",
                                         *_RUN_SERIAL], 0, ""),
    "paced serial run": (
        {}, [*_RUN_SERIAL, "--paced"], 2,
        "error: paced replay needs threaded mode\n"),
    "config watermark lag": (
        {"run.conf": b"watermark-lag = 5\n"}, ["--config", "{dir}/run.conf",
                                               *_RUN_SERIAL], 2,
        "error: config line 1: unknown option 'watermark-lag' for run\n"),
    "config boolean maybe": (
        {"run.conf": b"paced = maybe\n"}, ["--config", "{dir}/run.conf",
                                           *_RUN_SERIAL], 2,
        "error: config line 1: bad boolean 'maybe'\n"),
    "binary header under 8 bytes": (
        {"h.bin": b"EVT1\x04\x00"}, ["run", "-i", "{dir}/h.bin"], 2,
        "error: {dir}/h.bin: header shorter than 8 bytes (byte offset 0)\n"),
    # an empty file cannot be mapped: it is read, and reported the same
    "empty binary file": (
        {"e0.bin": b""}, ["run", "-i", "{dir}/e0.bin"], 2,
        "error: {dir}/e0.bin: header shorter than 8 bytes (byte offset 0)\n"),
    "unwritable synth output": (
        {}, ["synth", "-o", "{dir}/no/ev.bin"], 2,
        "error: cannot write {dir}/no/ev.bin: "),
    "unwritable convert output": (
        {}, ["convert", "-i", "{src}", "-o", "{dir}/no/ev.csv",
             "--from-format", "binary-v1", "--to-format", "csv"], 2,
        "error: cannot write {dir}/no/ev.csv: "),
    "unwritable surface output": (
        {}, ["surface", "-i", "{src}", "-o", "{dir}/no/s"], 2,
        "error: cannot write {dir}/no/s_ch00.pgm: "),
    "unwritable bench csv": (
        {}, ["bench", "--workload", "quantize", "-o", "{dir}/no/b.csv"], 2,
        "error: cannot write {dir}/no/b.csv: "),
    "unwritable bench json": (
        {}, ["bench", "--workload", "quantize", "--json", "{dir}/no/b.json"],
        2, "error: cannot write {dir}/no/b.json: "),
    "zero sensor side": (
        {"z.bin": b"EVT1\x00\x00\x04\x00"}, ["run", "-i", "{dir}/z.bin"],
        2, "error: {dir}/z.bin: zero sensor dimension in header "
        "(byte offset 4)\n"),
}


@pytest.mark.parametrize("label", _USAGE_CASES)
def test_usage_faults_exit_with_their_message(tmp_path, capsys, label):
    files, argv, code, err = _USAGE_CASES[label]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    src = _synth(tmp_path)
    capsys.readouterr()
    rc = cli.main([a.format(src=src, dir=tmp_path) for a in argv])
    assert rc == code
    assert capsys.readouterr().err.startswith(err.format(dir=tmp_path))


class TestVerify:
    def test_default_comparison_passes(self, capsys):
        rc = cli.main(["verify", "--geometry", "100x100"])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "verdict: pass" in stdout
        assert "l1_constant_count" in stdout

    def test_fail_verdict_exits_four(self, capsys):
        # at one speed the two window modes tie on every pair, so the
        # check fails: a verdict, not an internal error
        rc = cli.main(["verify", "--geometry", "32x32", "--factor", "1"])
        out = capsys.readouterr()
        assert rc == 4
        assert "verdict: fail" in out.out and out.err == ""

    @pytest.mark.parametrize("option", [
        ["--geometry", "1x100"], ["--speed", "0"], ["--factor", "0"],
        ["--speed=-100"], ["--speed", "nan"], ["--factor", "inf"],
        ["--counts", "0.3,0.1"]])
    def test_bad_values_are_usage_errors(self, capsys, option):
        rc = cli.main(["verify", *option])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestBench:
    def test_match_workload_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--workload", "match", "--iterations", "1",
                       "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "workload,n,mean_us,p99_us"
        assert len(lines) == 4
        assert all(line.startswith("match,") for line in lines[1:])
        assert capsys.readouterr().out.splitlines()[0] == lines[0]

    def test_classical_workload_rows(self, capsys):
        rc = cli.main(["bench", "--workload", "classical",
                       "--iterations", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "workload,n,mean_us,p99_us"
        assert [line.split(",")[:2] for line in lines[1:]] == \
            [["classical", "16384"], ["classical", "43200"]]

    def test_nms_workload_rows(self, capsys):
        rc = cli.main(["bench", "--workload", "nms", "--iterations", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "workload,n,mean_us,p99_us"
        assert [line.split(",")[:2] for line in lines[1:]] == \
            [["nms", "16384"], ["nms", "43200"]]

    def test_ingest_workload_rows(self, capsys):
        rc = cli.main(["bench", "--workload", "ingest", "--events-n", "3000",
                       "--iterations", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "workload,n,mean_us,p99_us"
        assert [line.split(",")[:2] for line in lines[1:]] == \
            [["ingest", "3000"], ["ingest", "6000"],
             ["writer", "3000"], ["writer", "6000"]]

    def test_ingest_rings_sized_as_the_pipeline_sizes_them(
            self, monkeypatch, capsys):
        # both rows of each size build the ring stream_ring_capacity
        # gives: the stream plus one, capped at the largest window plus
        # one (43201 at 240x180); one untimed and one timed call a row
        capacities = []
        real_ring = surface.EventCountRing

        def recording_ring(capacity):
            capacities.append(capacity)
            return real_ring(capacity)

        for module in (surface, pipeline):
            monkeypatch.setattr(module, "EventCountRing", recording_ring)
        assert cli.main(["bench", "--workload", "ingest", "--events-n",
                         "30000", "--iterations", "1"]) == 0
        assert capacities == [30_001, 30_001, 43_201, 43_201] * 2

    def test_snapshot_workload_rows(self, capsys):
        rc = cli.main(["bench", "--workload", "snapshot",
                       "--iterations", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "workload,n,mean_us,p99_us"
        assert [line.split(",")[:2] for line in lines[1:]] == \
            [["snapshot", "16384"], ["snapshot", "43200"]]

    def test_synth_workload_rows(self, capsys):
        rc = cli.main(["bench", "--workload", "synth", "--iterations", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "workload,n,mean_us,p99_us"
        assert [line.split(",")[:2] for line in lines[1:]] == \
            [["synth", "16384"], ["synth", "43200"], ["synth", "307200"]]

    def test_quantize_workload_rows(self, capsys):
        rc = cli.main(["bench", "--workload", "quantize", "--iterations", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "workload,n,mean_us,p99_us"
        assert [line.split(",")[:2] for line in lines[1:]] == \
            [["quantize", "100"], ["quantize", "500"], ["quantize", "1000"]]

    def test_describe_and_pipeline_rows(self, monkeypatch, capsys):
        # describe: n is the corner grid's learned keypoint count, and the
        # call quantizes that many descriptors; pipeline: n is the event
        # count, classical over 1.5 s of stream, learned over 0.5 s
        returned = []

        def record(fn, iterations):
            returned.append(fn())
            return 0.0, 0.0

        monkeypatch.setattr(cli, "_time_us", record)
        for name in ("describe", "pipeline"):
            assert cli.main(["bench", "--workload", name]) == 0
        rows = [line.split(",")[:2]
                for line in capsys.readouterr().out.splitlines()
                if not line.startswith("workload,")]
        assert [w for w, _ in rows] == ["describe"] + ["pipeline"] * 2
        quantized, (classical, _), (learned, _) = returned
        assert int(rows[0][1]) == len(quantized) > 0
        assert int(rows[1][1]) > 2 * int(rows[2][1]) > 0
        assert len(classical) > 2 * len(learned) > 0
        assert all(any(r.matches_to_previous for r in run)
                   for run in (classical, learned))

    def test_all_rows_and_json_schema(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = cli.main(["bench", "--workload", "all", "--events-n", "2000",
                       "--iterations", "2", "--json", str(out)])
        assert rc == 0
        csv_rows = [line.split(",")[:2]
                    for line in capsys.readouterr().out.splitlines()[1:]]
        report = json.loads(out.read_text())
        assert list(report) == ["environment", "rows"]
        env = report["environment"]
        assert list(env) == ["cpu_count", "python", "numpy", "blas_threads",
                             "encoder_bands"]
        assert isinstance(env["cpu_count"], int) and env["cpu_count"] >= 1
        assert isinstance(env["numpy"], str) and isinstance(env["python"], str)
        assert env["blas_threads"] is None or env["blas_threads"] >= 1
        assert isinstance(env["encoder_bands"], int)
        assert env["encoder_bands"] >= 1
        names = [row["workload"] for row in report["rows"]]
        assert list(dict.fromkeys(names)) == [
            "ingest", "writer", "mcts", "snapshot", "classical", "nms",
            "forward", "describe", "quantize", "match", "synth", "pipeline"]
        assert [[r["workload"], str(r["n"])] for r in report["rows"]] == \
            csv_rows
        for row in report["rows"]:
            assert list(row) == ["workload", "n", "mean_us", "p99_us",
                                 "iterations"]
            assert isinstance(row["n"], int) and row["iterations"] == 2
            assert isinstance(row["mean_us"], float)
            assert isinstance(row["p99_us"], float)

    def test_unknown_workload(self):
        assert cli.main(["bench", "--workload", "warp"]) == 2


class TestBenchInputs:
    def _rows(self, monkeypatch, capsys, argv):
        """Each row's (workload, n) with what its call returned once."""
        returned = []

        def record(fn, iterations):
            returned.append(fn())
            return 0.0, 0.0

        monkeypatch.setattr(cli, "_time_us", record)
        assert cli.main(["bench", *argv]) == 0
        rows = [tuple(line.split(",")[:2])
                for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == len(returned)
        return list(zip(rows, returned))

    def test_rows_do_not_depend_on_other_workloads(self, monkeypatch,
                                                   capsys):
        alone = self._rows(monkeypatch, capsys, ["--workload", "classical"])
        mixed = [row for row in self._rows(
            monkeypatch, capsys, ["--workload", "all", "--events-n", "2000"])
            if row[0][0] == "classical"]
        assert [key for key, _ in alone] == [key for key, _ in mixed]
        assert len(alone) == 2
        for (_, (kps_a, desc_a)), (_, (kps_b, desc_b)) in zip(alone, mixed):
            assert len(kps_a) > 0
            assert np.array_equal(kps_a.xy, kps_b.xy)
            assert np.array_equal(kps_a.scores, kps_b.scores)
            assert np.array_equal(desc_a, desc_b)

    def test_each_row_calls_once_untimed_first(self, monkeypatch):
        calls = []
        ticks = iter(range(0, 10**9, 1_000))
        monkeypatch.setattr(cli.time, "perf_counter_ns",
                            lambda: next(ticks))
        mean, p99 = cli._time_us(lambda: calls.append(1), 3)
        assert len(calls) == 4
        assert mean == p99 == 1.0

    @pytest.mark.parametrize("option", [
        ["--events-n=-5"], ["--events-n", "0"], ["--seed=-1"],
        ["--iterations", "0"]])
    def test_bad_values_are_usage_errors(self, capsys, option):
        rc = cli.main(["bench", "--workload", "ingest", *option])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("events_n", ["99999999999999999999",
                                          str(10 ** 7 + 1)])
    def test_events_n_past_its_ceiling_is_usage_error(
            self, capsys, monkeypatch, events_n):
        def no_timing(call, iterations):
            raise AssertionError("a bench row ran")
        monkeypatch.setattr(cli, "_time_us", no_timing)
        rc = cli.main(["bench", "--workload", "ingest", "--events-n",
                       events_n])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: events-n must be at most 10**7\n"


# Every numeric option, one at a time, each given every value of
# _SWEEP_VALUES on top of a small valid command. Rows are (label, the
# command before the option, the option with the value written as {}).
# Left out: bench --iterations 1000000000 and 99999999999999999999, which
# are no error, only a run of that many iterations.
_SWEEP_VALUES = ("0", "-1", "nan", "inf", "1e300", "1e-300", "1000000000",
                 "99999999999999999999")
_SYNTH = ["synth", "--pattern", "grid-of-corners", "--velocity=-56,-42",
          "--duration", "0.1", "--geometry", "32x32", "--grid-pitch", "16",
          "--square-side", "6", "-o", "{out}/s.bin"]
_RUN = ["run", "-i", "{src}", "--mode", "serial"]
_LEARNED = [*_RUN, "--detector", "learned"]
_BENCH = ["bench", "--workload", "ingest", "--events-n", "1000",
          "--iterations", "1"]
_CONVERT = ["convert", "-i", "{csv}", "-o", "{out}/c.bin", "--from-format",
            "csv", "--to-format", "binary-v1"]
_SWEEP = [
    *(("synth", _SYNTH, option) for option in (
        "--velocity={},30", "--duration={}", "--geometry={}x{}",
        "--start-time={}", "--grid-pitch={}", "--square-side={}")),
    ("convert", _CONVERT, "--geometry={}x{}"),
    *(("surface", ["surface", "-i", "{src}", "-o", "{out}/s", *mode], option)
      for mode, option in (([], "--tau={}"), ([], "--counts={}"),
                           (["--mode", "fixed-duration"], "--durations={}"))),
    *((label, base, option)
      for label, base in (("run classical", _RUN), ("run learned", _LEARNED))
      for option in (
          "--tick={}", "--counts=0.03,0.1,0.3,{}",
          "--channel-pair={}", "--nms-radius={}", "--nms-threshold={}",
          "--nms-max-k={}", "--max-distance={}", "--metrics-interval={}")),
    ("run learned", _LEARNED, "--weights-seed={}"),
    *(("verify", ["verify", "--geometry", "32x32"], option) for option in (
        "--geometry={}x{}", "--speed={}", "--factor={}", "--counts={}")),
    *(("bench", _BENCH, option) for option in (
        "--events-n={}", "--iterations={}", "--seed={}")),
]
# (option, value) cases that must end in exactly this usage error
_USAGE_ERRORS = {("--events-n={}", v): "error: events-n must be at most "
                 "10**7\n" for v in ("99999999999999999999", str(10**7 + 1))}


@pytest.fixture(scope="module")
def sweep_stream(tmp_path_factory):
    """The sweep's stream, binary-v1 and CSV."""
    out = tmp_path_factory.mktemp("sweep")
    assert cli.main([a.format(out=out) for a in _SYNTH]) == 0
    assert cli.main(["convert", "-i", str(out / "s.bin"), "-o",
                     str(out / "s.csv"), "--from-format", "binary-v1",
                     "--to-format", "csv"]) == 0
    return out / "s.bin", out / "s.csv"


def test_sweep_covers_exactly_the_numeric_options():
    """Each swept option is registered for its subcommand, and each
    registered option that takes a number is swept, so the hand list
    cannot drift from the parser."""
    cli._build_parser()
    swept = {(label.split()[0], option.split("=")[0][2:])
             for label, _, option in _SWEEP}
    for command, name in swept:
        assert name in cli._CONVERTERS[command], (command, name)
    numeric = (int, float, cli._float_list, cli._int_list, cli._velocity,
               cli._geometry)
    registered = {(command, name)
                  for command, table in cli._CONVERTERS.items()
                  for name, conv in table.items() if conv in numeric}
    assert swept == registered


@pytest.mark.parametrize(
    "label, base, option", _SWEEP,
    ids=[f"{label} {option.split('=')[0]}" for label, _, option in _SWEEP])
def test_no_flag_value_is_an_internal_error(tmp_path, capsys, sweep_stream,
                                            label, base, option):
    """Each case exits 0, 2 or 3, or 4 with a ``verify`` fail verdict,
    within a few MB of traced memory: no value reaches the last-resort
    ``internal error`` boundary or asks for a huge allocation."""
    src, csv = sweep_stream
    argv = [a.format(src=src, csv=csv, out=tmp_path) for a in base]
    values = [*_SWEEP_VALUES, *(v for o, v in _USAGE_ERRORS
                                if o == option and v not in _SWEEP_VALUES)]
    if option == "--iterations={}":
        values.remove("1000000000")
        values.remove("99999999999999999999")
    for value in values:
        capsys.readouterr()
        rc, peak = _main_peak([*argv, option.format(value, value)])
        err = capsys.readouterr().err
        case = (label, option, value, rc, err)
        assert "internal error" not in err, case
        assert rc in (0, 2, 3) or (label == "verify" and rc == 4), case
        assert peak < 8 << 20, (case, peak)
        if (option, value) in _USAGE_ERRORS:
            assert rc == 2 and err == _USAGE_ERRORS[option, value], case


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        conf = tmp_path / "synth.conf"
        conf.write_text("# stream shape\npattern = grid-of-corners\n"
                        "velocity = -56,-42\nduration = 0.2\n"
                        "geometry = 48x48\ngrid-pitch = 24\n")
        out = tmp_path / "c.bin"
        rc = cli.main(["--config", str(conf), "synth", "-o", str(out)])
        assert rc == 0
        batch = parse_events(out.read_bytes(), "binary-v1")
        assert batch.geometry == SensorGeometry(48, 48)

    def test_flag_beats_config(self, tmp_path):
        conf = tmp_path / "synth.conf"
        conf.write_text("geometry = 48x48\npattern = grid-of-corners\n")
        out = tmp_path / "c.bin"
        rc = cli.main(["--config", str(conf), "synth", "--geometry",
                       "80x80", "-o", str(out)])
        assert rc == 0
        batch = parse_events(out.read_bytes(), "binary-v1")
        assert batch.geometry == SensorGeometry(80, 80)

    def test_unknown_key_reports_line(self, tmp_path, capsys):
        conf = tmp_path / "synth.conf"
        conf.write_text("pattern = grid-of-corners\nwarp-speed = 9\n")
        rc = cli.main(["--config", str(conf), "synth",
                       "-o", str(tmp_path / "c.bin")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        # a form feed is no line break: the line's value is no integer
        (b"tick = 5000\x0cbogus = 1\n", "config line 1: invalid literal"),
        (b"tick = 5000\r\n\rbogus = 1\n", "config line 3: unknown option"),
        (b"paced = off\ntick = 50\xff0\n", "config line 2: invalid literal"),
    ])
    def test_lines_are_physical_lines(self, tmp_path, capsys, text, message):
        conf = tmp_path / "run.conf"
        conf.write_bytes(text)
        rc = cli.main(["--config", str(conf), "run", "-i",
                       str(tmp_path / "absent.bin")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_missing_config_file(self, tmp_path):
        rc = cli.main(["--config", str(tmp_path / "absent.conf"), "synth",
                       "-o", str(tmp_path / "c.bin")])
        assert rc == 2

    def test_malformed_line(self, tmp_path):
        conf = tmp_path / "synth.conf"
        conf.write_text("just words\n")
        rc = cli.main(["--config", str(conf), "synth",
                       "-o", str(tmp_path / "c.bin")])
        assert rc == 2

    def test_flag_equal_to_default_beats_config(self, tmp_path,
                                                monkeypatch):
        runs = _capture_runs(monkeypatch)
        src = _synth(tmp_path)
        conf = tmp_path / "run.conf"
        conf.write_text("tick = 5000\n")
        run = ["run", "-i", str(src), "--mode", "serial"]
        assert cli.main(["--config", str(conf), *run]) == 0
        assert cli.main(["--config", str(conf), *run,
                         "--tick", "10000"]) == 0
        assert [c.tick for _, c in runs] == [5000, 10000]

    def test_config_does_not_leak_into_a_later_call(self, tmp_path,
                                                     monkeypatch):
        runs = _capture_runs(monkeypatch)
        src = _synth(tmp_path)
        conf = tmp_path / "run.conf"
        conf.write_text("tick = 5000\nnms-radius = 2\n")
        run = ["run", "-i", str(src), "--mode", "serial"]
        assert cli.main(["--config", str(conf), *run]) == 0
        assert cli.main(run) == 0
        assert [(c.tick, c.nms_radius) for _, c in runs] == \
            [(5000, 2), (10_000, 4)]

    def test_bool_options_from_the_file(self, tmp_path, monkeypatch):
        runs = _capture_runs(monkeypatch)
        src = _synth(tmp_path)
        results = tmp_path / "r.jsonl"
        conf = tmp_path / "run.conf"
        conf.write_text("paced = yes\nno-descriptors = true\n"
                        "mode = threaded\n")
        rc = cli.main(["--config", str(conf), "run", "-i", str(src),
                       "--results", str(results)])
        assert rc == 0
        assert runs[0][0].paced
        rows = [json.loads(line) for line in
                results.read_text().splitlines()]
        assert rows and all("descriptors" not in row for row in rows)

    def test_run_defaults_are_the_pipeline_defaults(self, tmp_path,
                                                    monkeypatch):
        runs = _capture_runs(monkeypatch)
        src = _synth(tmp_path)
        assert cli.main(["run", "-i", str(src)]) == 0
        default = pipeline.PipelineConfig()
        for field in dataclasses.fields(pipeline.PipelineConfig):
            assert getattr(runs[0][1], field.name) == \
                getattr(default, field.name), field.name


def _capture_runs(monkeypatch):
    """The (source, config) of each run_frames call, which still runs."""
    runs = []
    real_run = pipeline.run_frames

    def recording_run(source, config, *args, **kwargs):
        runs.append((source, config))
        return real_run(source, config, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_frames", recording_run)
    return runs


@pytest.mark.parametrize("text", ["5", "1,2,3", ""])
def test_velocity_needs_exactly_two_parts(text):
    with pytest.raises(argparse.ArgumentTypeError) as err:
        cli._velocity(text)
    assert str(err.value) == f"velocity must be vx,vy, got {text!r}"
