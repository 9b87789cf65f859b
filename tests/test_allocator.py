"""The allocator policy ``train`` sets on glibc: no re-faulted tape memory, no
peak that ratchets up over calls, and the same numbers on every platform.

The fault and peak checks run in a fresh interpreter, because an earlier test
will already have set this process's allocator.
"""

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import mmists
from mmists import harness
from mmists.harness import save_checkpoint, train
from mmists.data import GenConfig, generate_synthetic
from mmists.model import RunConfig

ON_GLIBC = platform.libc_ver()[0] == "glibc"
REAL_CDLL = ctypes.CDLL
glibc_only = pytest.mark.skipif(not ON_GLIBC, reason="the allocator policy is glibc only")


def run_fresh(body: str) -> list:
    """Run ``body`` after a preamble that generates ``episodes`` (160
    xor_fusion episodes) in a new interpreter; return the JSON it prints."""
    preamble = (
        "import json, resource\n"
        "from mmists.data import GenConfig, generate_synthetic\n"
        "from mmists.harness import train\n"
        "from mmists.model import RunConfig\n"
        "episodes = generate_synthetic(GenConfig(n_episodes=160, task='xor_fusion', seed=13))\n"
    )
    src = str(Path(mmists.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", preamble + body], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@glibc_only
def test_training_does_not_fault_its_tape_back_in():
    """Five default fused one-epoch runs on 64 episodes in a row: from the
    third on, fewer than 10 minor page faults per trained episode (about 340
    when glibc returned each group's freed tape pages to the kernel)."""
    faults = run_fresh(
        "train_split, val_split = episodes[:64], episodes[64:96]\n"
        "faults = []\n"
        "for seed in range(5):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    train(RunConfig(seed=seed, epochs=1), train_split, val_split)\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(json.dumps(faults))\n"
    )
    assert all(f < 10 * 64 for f in faults[2:]), faults


@glibc_only
def test_repeated_training_calls_do_not_ratchet_the_peak():
    """Five default fused epochs=0 runs, each holding the previous checkpoint
    while it trains (as a benchmark setup or a seed loop that rebinds one
    name does): the peak RSS after the fifth is within 1 MB of that after the
    second (4.2 MB higher when parameter-sized buffers landed in the heap).
    The peak is VmHWM, not ru_maxrss: Linux carries the forking process's
    peak across exec into ru_maxrss, and this one is pytest's."""
    peaks = run_fresh(
        "train_split, val_split = episodes[:128], episodes[128:]\n"
        "peaks = []\n"
        "ckpt = None\n"
        "for _ in range(5):\n"
        "    ckpt = train(RunConfig(epochs=0), train_split, val_split)\n"
        "    status = open('/proc/self/status').read()\n"
        "    peaks.append(int(status.split('VmHWM:')[1].split()[0]))\n"
        "print(json.dumps(peaks))\n"
    )
    assert peaks[4] - peaks[1] < 1024, peaks  # kB


class MalloptRecorder:
    """Stands in for ``ctypes.CDLL``: records each mallopt call and passes it
    to the real one where there is one."""

    calls: list = []

    def __init__(self, name):
        lib = REAL_CDLL(name) if ON_GLIBC else None

        def mallopt(param, value):
            MalloptRecorder.calls.append((param, value))
            return lib.mallopt(param, value) if lib is not None else 1

        self.mallopt = mallopt


def test_off_glibc_train_sets_nothing_and_gives_the_same_numbers(monkeypatch, tmp_path):
    episodes = generate_synthetic(GenConfig(n_episodes=48, task="xor_fusion", seed=7))
    config = RunConfig(
        seed=3, epochs=2, alpha=6, d_hidden=8, d_timeembed=4, time_heads=2, heads=2,
        fusion_layers=1, batch_size=16,
    )
    monkeypatch.setattr(MalloptRecorder, "calls", [])
    monkeypatch.setattr(ctypes, "CDLL", MalloptRecorder)
    runs = {}
    for libc in ("musl", "glibc"):
        monkeypatch.setattr(platform, "libc_ver", lambda *a, libc=libc, **k: (libc, "1.0"))
        harness._fix_allocator.cache_clear()
        losses = []
        save_checkpoint(tmp_path / libc, train(config, episodes[:32], episodes[32:], loss_trace=losses))
        runs[libc] = losses, (tmp_path / libc).read_bytes()
        if libc == "musl":
            assert MalloptRecorder.calls == []
    assert MalloptRecorder.calls == [
        (harness._M_MMAP_THRESHOLD, harness.MMAP_THRESHOLD),
        (harness._M_TRIM_THRESHOLD, harness.TRIM_THRESHOLD),
    ]
    assert runs["musl"] == runs["glibc"]


def test_allocator_is_fixed_once_per_process(monkeypatch):
    monkeypatch.setattr(MalloptRecorder, "calls", [])
    monkeypatch.setattr(ctypes, "CDLL", MalloptRecorder)
    monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("glibc", "2.36"))
    harness._fix_allocator.cache_clear()
    assert harness._fix_allocator() and harness._fix_allocator()
    assert len(MalloptRecorder.calls) == 2
