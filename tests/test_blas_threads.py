"""A run's bytes do not depend on the BLAS thread count of the process.

The smallest training found whose checkpoint differed between one and two
OpenBLAS threads: one fold of a 2-subject 54x54 set, base 4 channels. Its
third stage's kernel gradient is a GEMM whose sum OpenBLAS splits when it
has two threads. ``sdscreen`` pins one thread before any command runs, so
``OPENBLAS_NUM_THREADS`` no longer changes what a run writes.
"""

import os
import subprocess
import sys
from pathlib import Path

import sdscreen

SRC = str(Path(sdscreen.__file__).resolve().parent.parent)


def sdscreen_cli(*args: str, threads: int) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "sdscreen.cli", *args], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    data = tmp_path / "data"
    sdscreen_cli("synth", "--out", str(data), "--set", "n_subjects=2", "--set", "fps=5",
                 "--set", "height=54", "--set", "width=54", "--set", "disagreement_rate=0",
                 "--set", "time_min_s=2.0", "--set", "time_max_s=2.9", threads=1)
    checkpoints = []
    for threads in (1, 2):
        out = tmp_path / f"run{threads}"
        sdscreen_cli("train", "--data", str(data), "--out", str(out), "--fold", "0",
                     "--set", "input_hw=54", "--set", "base_channels=4",
                     "--set", "feature_dim=4", "--set", "hidden1=8", "--set", "hidden2=4",
                     "--set", "blocks=0", "--set", "epochs=1", "--set", "batch_size=1",
                     "--set", "folds=2", threads=threads)
        checkpoints.append((out / "fold0.ckpt").read_bytes())
    assert checkpoints[0] == checkpoints[1]
