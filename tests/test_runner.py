"""The experiment runner: cell enumeration, the process pool and the
journal that ``fcodt sweep`` and ``fcodt bench`` resume from."""

import json

import numpy as np
import pytest

from fcodt import evaluation
from fcodt.cli import main
from fcodt.evaluation import (
    ExperimentConfig,
    ExperimentRecord,
    bench_cells,
    iter_cells,
    sweep_cells,
)


def run(*argv):
    return main(list(argv))


def write_config(path, **kw):
    base = {"methods": ["fc_odt"], "datasets": ["sim1"], "depths": [2],
            "repeats": 3, "lambda_grid": [0.1], "folds": 2, "seed_base": 3,
            "test_samples": 50, "max_depth": 2}
    base.update(kw)
    path.write_text(json.dumps(base))
    return path


def tiny_manifest(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for _ in range(60):
        x = rng.normal(size=2)
        lines.append(f"{x[0] + x[1]:.6f} 1:{x[0]:.6f} 2:{x[1]:.6f}")
    (tmp_path / "tiny.libsvm").write_text("\n".join(lines) + "\n")
    return {"tiny": {"path": "tiny.libsvm", "format": "libsvm", "n_features": 2}}


def fast_config(**kw):
    base = dict(methods=("fc_odt", "cart"), datasets=("sim1",), depths=(2,),
                sample_sizes=(60,), repeats=2, lambda_grid=(0.1,), folds=2,
                test_samples=50, max_depth=2)
    base.update(kw)
    return ExperimentConfig(**base)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no
    process, and runs the cells in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


@pytest.fixture
def pool_sizes(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool.sizes


class TestCells:
    @pytest.mark.parametrize("kind", ["depth", "samples"])
    def test_sweep_key_is_record_key(self, kind):
        cells = sweep_cells(fast_config(datasets=("sim1", "sim2")), kind)
        assert len(cells) == 2 * 2 * 2
        records = list(iter_cells(cells, 1))
        assert [key for key, _, _ in cells] == [r.key() for r in records]

    def test_bench_key_is_record_key(self, tmp_path):
        cells, skipped = bench_cells(fast_config(datasets=("sim2", "tiny", "housing")),
                                     tiny_manifest(tmp_path), str(tmp_path))
        assert [s["dataset"] for s in skipped] == ["housing"]
        assert len(cells) == 2 * 2 * 2
        records = list(iter_cells(cells, 1))
        assert [key for key, _, _ in cells] == [r.key() for r in records]

    def test_real_dataset_loaded_once(self, tmp_path, monkeypatch):
        calls = []
        load = evaluation.load_from_manifest

        def counting(*args, **kwargs):
            calls.append(args[0])
            return load(*args, **kwargs)

        monkeypatch.setattr(evaluation, "load_from_manifest", counting)
        records, _ = evaluation.run_benchmark(
            fast_config(datasets=("tiny",), repeats=5), tiny_manifest(tmp_path),
            str(tmp_path))
        assert calls == ["tiny"]
        assert len(records) == 2 * 5


class TestPool:
    def test_pool_capped_at_cell_count(self, pool_sizes):
        cells = sweep_cells(fast_config(), "depth")
        records = list(iter_cells(cells, 64))
        assert pool_sizes == [len(cells)]
        assert ([(r.key(), r.value) for r in records]
                == [(r.key(), r.value) for r in iter_cells(cells, 1)])

    def test_one_worker_or_one_cell_runs_in_process(self, pool_sizes):
        cells = sweep_cells(fast_config(), "depth")
        list(iter_cells(cells, 1))
        list(iter_cells(cells[:1], 8))
        list(iter_cells([], 8))
        assert pool_sizes == []

    def test_pool_capped_at_pending_cells(self, tmp_path, pool_sizes):
        cfg = write_config(tmp_path / "cfg.json", repeats=4, workers=64)
        out_dir = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--kind", "depth",
                   "--out", str(out_dir)) == 0
        journal = out_dir / "depth_journal.csv"
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:-3]))
        assert run("sweep", "--config", str(cfg), "--kind", "depth",
                   "--out", str(out_dir)) == 0
        assert pool_sizes == [4, 3]

    def test_sweep_workers_give_same_bytes(self, tmp_path):
        outputs = []
        for workers in (1, 2):
            cfg = write_config(tmp_path / f"cfg{workers}.json",
                               methods=["fc_odt", "cart"], workers=workers)
            out_dir = tmp_path / f"out{workers}"
            assert run("sweep", "--config", str(cfg), "--kind", "depth",
                       "--out", str(out_dir)) == 0
            outputs.append((out_dir / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestRecordCodec:
    @pytest.mark.parametrize("record", [
        ExperimentRecord("fc_odt", "sim1", 2 ** 63 - 1, "depth", 0.1 + 0.2, "mse", 1e-300, 0.0),
        ExperimentRecord("cart", "sim2", 0, "n_samples", 2000.0, "r2", -0.1 - 0.2,
                         5e-324),
    ])
    def test_cells_round_trip_exactly(self, record):
        back = ExperimentRecord.from_cells(record.cells())
        assert back == record
        assert [float(v).hex() for v in (back.param_value, back.value, back.wall_time)] == \
            [float(v).hex() for v in (record.param_value, record.value, record.wall_time)]

    def test_cells_follow_record_columns(self):
        record = ExperimentRecord("fc_odt", "sim1", 7, "depth", 3.0, "mse", 0.5, 1.25)
        assert dict(zip(evaluation.RECORD_COLUMNS, record.cells())) == {
            "method": "fc_odt", "dataset": "sim1", "seed": "7", "param_name": "depth",
            "param_value": "3", "metric": "mse", "value": "0.5", "wall_time": "1.25"}

    @pytest.mark.parametrize("cells", [
        ["fc_odt", "sim1", "7", "depth", "3", "mse", "0.5"],
        ["fc_odt", "sim1", "7", "depth", "3", "mse", "0.5", "1", "0"],
        ["fc_odt", "sim1", "7.5", "depth", "3", "mse", "0.5", "1"],
        ["fc_odt", "sim1", "7", "depth", "three", "mse", "0.5", "1"],
    ])
    def test_from_cells_rejects_malformed(self, cells):
        with pytest.raises(ValueError):
            ExperimentRecord.from_cells(cells)


class TestJournal:
    def sweep(self, cfg, out_dir):
        return run("sweep", "--config", str(cfg), "--kind", "depth", "--out", str(out_dir))

    def test_first_line_is_config_hash(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert self.sweep(cfg, tmp_path / "out") == 0
        stamp = json.loads((tmp_path / "out" / "stamp.json").read_text())
        first = (tmp_path / "out" / "depth_journal.csv").read_text().splitlines()[0]
        assert first == f"# config_sha256 {stamp['config_sha256']}"

    def test_changed_config_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "out"
        assert self.sweep(cfg, out_dir) == 0
        journal = out_dir / "depth_journal.csv"
        before = journal.read_bytes()
        write_config(cfg, lambda_grid=[1.0], noise_sigma=0.5)
        capsys.readouterr()
        assert self.sweep(cfg, out_dir) == 1
        assert str(journal) in capsys.readouterr().err
        assert journal.read_bytes() == before

    def test_journal_without_header_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "out"
        assert self.sweep(cfg, out_dir) == 0
        journal = out_dir / "depth_journal.csv"
        headless = "".join(journal.read_text().splitlines(keepends=True)[1:])
        journal.write_text(headless)
        capsys.readouterr()
        assert self.sweep(cfg, out_dir) == 1
        assert str(journal) in capsys.readouterr().err
        assert journal.read_text() == headless

    def test_interrupted_last_line_rerun(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "out"
        assert self.sweep(cfg, out_dir) == 0
        results = (out_dir / "results.csv").read_bytes()
        journal = out_dir / "depth_journal.csv"
        text = journal.read_text()
        last = text.rstrip("\n").rsplit("\n", 1)[1]
        journal.write_text(text[:len(text) - len(last) // 2 - 1])
        capsys.readouterr()
        assert self.sweep(cfg, out_dir) == 0
        assert "2 already done, 1 to run" in capsys.readouterr().out
        assert (out_dir / "results.csv").read_bytes() == results
        rerun = journal.read_text().splitlines()
        # the same lines; the rerun cell's wall time (last field) is its own
        assert rerun[:-1] == text.splitlines()[:-1]
        assert rerun[-1].rsplit(",", 1)[0] == last.rsplit(",", 1)[0]

    def test_malformed_line_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "out"
        assert self.sweep(cfg, out_dir) == 0
        journal = out_dir / "depth_journal.csv"
        lines = journal.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace(",", ";", 1)
        journal.write_text("".join(lines))
        capsys.readouterr()
        assert self.sweep(cfg, out_dir) == 1
        err = capsys.readouterr().err
        assert f"journal {journal} line 4" in err

    def test_line_with_extra_cell_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "out"
        assert self.sweep(cfg, out_dir) == 0
        journal = out_dir / "depth_journal.csv"
        lines = journal.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace("\n", ",0\n")  # 9 cells
        journal.write_text("".join(lines))
        capsys.readouterr()
        assert self.sweep(cfg, out_dir) == 1
        assert f"journal {journal} line 4" in capsys.readouterr().err

    def test_bench_resumes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", methods=["fc_odt", "cart"], repeats=2)
        out_dir = tmp_path / "bench"
        assert run("bench", "--config", str(cfg), "--out", str(out_dir)) == 0
        outputs = {name: (out_dir / name).read_bytes()
                   for name in ("results.csv", "aggregate.csv", "significance.csv")}
        assert (out_dir / "bench_journal.csv").exists()
        capsys.readouterr()
        assert run("bench", "--config", str(cfg), "--out", str(out_dir)) == 0
        assert "4 cells, 4 already done, 0 to run" in capsys.readouterr().out
        for name, data in outputs.items():
            assert (out_dir / name).read_bytes() == data

    @pytest.mark.parametrize("change", ["file", "entry"])
    def test_bench_refuses_changed_data(self, tmp_path, capsys, change):
        manifest_path = tmp_path / "manifest.json"
        manifest = tiny_manifest(tmp_path)
        manifest_path.write_text(json.dumps(manifest))
        cfg = write_config(tmp_path / "cfg.json", datasets=["tiny"], repeats=2)
        out_dir = tmp_path / "bench"
        argv = ["bench", "--config", str(cfg), "--manifest", str(manifest_path),
                "--out", str(out_dir)]
        assert run(*argv) == 0
        journal = out_dir / "bench_journal.csv"
        assert journal.read_text().splitlines()[1].startswith("# dataset tiny entry_sha256 ")
        capsys.readouterr()
        assert run(*argv) == 0
        assert "2 cells, 2 already done, 0 to run" in capsys.readouterr().out
        before = journal.read_bytes()
        if change == "file":
            data = tmp_path / "tiny.libsvm"
            data.write_text("".join(data.read_text().splitlines(keepends=True)[:-1]))
        else:
            manifest["tiny"]["n_features"] = 3
            manifest_path.write_text(json.dumps(manifest))
        assert run(*argv) == 1
        assert str(journal) in capsys.readouterr().err
        assert journal.read_bytes() == before
