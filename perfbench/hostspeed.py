"""Host-speed reference: a fixed numpy MLP training kernel, timed in a helper process.

The shared host this benchmark was tuned on changes speed by up to 45% from
one minute to the next (other tenants), and between two runs of the same
code minutes apart that drift can be larger than the effects the benchmark is
meant to show.  `HostSpeed` times a fixed kernel between popbo runs; the
kernel mimics the shape of popbo's hot loop (a 6-128-128-128-1 ReLU network,
batch 16, forward, backward and an ADAM update in a Python loop) but shares
no code with popbo.  run.py divides the graded timing figures by its
slowdown `median sample / REFERENCE_MS`, so they read as times on a host
where the kernel takes REFERENCE_MS.

The kernel runs in its own process, which imports numpy but never popbo, and
only while popbo's process waits for its answer, so popbo's heap and Python
state cannot reach it.  A thread left spinning in popbo's process still takes
one of the host's cores; in a test it moved the kernel's median by about 10%,
about as much as the kernel's own noise.

Run as a script, this file is that helper: each line on stdin asks for one
burst of BURST kernel runs, answered with one JSON list of times in ms.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import subprocess
import sys
import time

import numpy as np

# Fixed reference near the kernel's median on the host the benchmark was tuned on, in ms.
REFERENCE_MS = 7.0
SAMPLE_INTERVAL_S = 0.5
BURST = 4  # kernel runs per sampling, the same for every workload
HELPER_TIMEOUT_S = 30
_SIZES = (6, 128, 128, 128, 1)
_STEPS = 8


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(20240204)
        self._weights = [rng.normal(0.0, 0.1, (a, b)) for a, b in zip(_SIZES[:-1], _SIZES[1:])]
        self._x = rng.uniform(size=(16, _SIZES[0]))

    def run(self):
        weights = [w.copy() for w in self._weights]
        biases = [np.zeros(w.shape[1]) for w in weights]
        params = weights + biases
        m1 = [np.zeros_like(p) for p in params]
        m2 = [np.zeros_like(p) for p in params]
        for _ in range(_STEPS):
            h = self._x
            inputs, pre_acts = [h], []
            for w, b in zip(weights[:-1], biases[:-1]):
                pre = h @ w + b
                h = np.maximum(pre, 0.0)
                pre_acts.append(pre)
                inputs.append(h)
            z = (h @ weights[-1] + biases[-1])[:, 0]
            delta = (0.01 / (1.0 + np.exp(-z)))[:, None]
            grads_w = [inputs[-1].T @ delta]
            grads_b = [delta.sum(axis=0)]
            down = delta @ weights[-1].T
            for layer in range(len(weights) - 2, -1, -1):
                delta = down * (pre_acts[layer] > 0.0)
                grads_w.insert(0, inputs[layer].T @ delta)
                grads_b.insert(0, delta.sum(axis=0))
                down = delta @ weights[layer].T
            for p, g, m, v in zip(params, grads_w + grads_b, m1, m2):
                m *= 0.9
                m += 0.1 * g
                v *= 0.999
                v += 0.001 * np.square(g)
                p -= 1e-3 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)

    def burst(self) -> list:
        times = []
        for _ in range(BURST):
            t0 = time.perf_counter()
            self.run()
            times.append(1e3 * (time.perf_counter() - t0))
        return times


class HostSpeed:
    """Kernel samples from a helper process; use as a context manager.

    The first burst warms the helper up and is not kept.
    """

    def __init__(self):
        self.samples = []  # kernel times in ms
        self._proc = None
        self._last = 0.0

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self._burst()
        self.samples.clear()
        return self

    def __exit__(self, *exc):
        proc, self._proc = self._proc, None
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.close()
        try:
            proc.wait(timeout=HELPER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def _burst(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed helper exited")
        self.samples += json.loads(line)
        self._last = time.perf_counter()

    def maybe_sample(self):
        """One burst if SAMPLE_INTERVAL_S has passed since the last.

        A fixed burst keeps the sampling pattern the same for every workload:
        each burst follows a popbo run directly, whatever the runs' length.
        """
        if time.perf_counter() - self._last >= SAMPLE_INTERVAL_S:
            self._burst()

    def slowdown(self) -> float:
        """Median kernel time over REFERENCE_MS: above 1 on a slower host."""
        if not self.samples:
            self._burst()
        return statistics.median(self.samples) / REFERENCE_MS


def serve():
    kernel = Kernel()
    for _ in sys.stdin:
        print(json.dumps(kernel.burst()), flush=True)


if __name__ == "__main__":
    serve()
