"""The three workloads: seeded inputs, the CLI call of each op, and its checks.

Inputs come only from the benchmark seed.  Each workload renders a few
scenes with tests/synth.py::benchmark_image; an op's cover is one scene
circularly shifted and given +-1 LSB noise from a generator seeded with
(seed, op index), so no two ops get the same pixels and no result can be
reused across ops (verify shares covers on purpose, see below).  Input
files are written here, not with dwtmark's own writer, so that a change to
the program cannot change its inputs.

Each workload runs inside its own scratch directory and passes bare file
names to the CLI, so reports are byte-identical wherever the benchmark runs.
"""

import hashlib
import json

import numpy as np

import invariants
import synth
from dwtmark import attacks, dwt, pixmap, watermarker

SCENES = 2
WARMUP = 8 * 10**6   # op index of the untimed warm-up op (clean verify copy)
MARK_FILE = "mark.pbm"


def write_pgm(img, path):
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h) + img.astype(np.uint8).tobytes())


def write_pbm(mark, path):
    rows = [" ".join("1" if b > 0 else "0" for b in row) for row in mark]
    with open(path, "w") as fh:
        fh.write("P1\n16 16\n" + "\n".join(rows) + "\n")


def digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return h.hexdigest()[:16]


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class Workload:
    """One op = one `dwtmark` CLI call on files this class prepares.

    Subclasses set `name`, `size`, `tail_percentile` and `digest_ops` (how
    many leading ops have their output digests recorded in expected.json).
    The tail percentile is fixed per workload so that runs stay comparable:
    it is the highest ladder percentile with ten samples beyond it at the op
    count of a 20 s run on a 2-vCPU host (invariants.tail_percentile), and
    the loop always runs enough ops to keep ten beyond it.
    """

    def __init__(self, seed):
        self.seed = seed
        self.mark = synth.benchmark_mark()
        self.scenes = []

    def setup(self):
        """Render the scenes and write the reference mark; returns their digest."""
        self.scenes = [synth.benchmark_image(self.seed * SCENES + j, self.size)
                       for j in range(SCENES)]
        write_pbm(self.mark, MARK_FILE)
        return digest(*(s.astype(np.uint8).tobytes() for s in self.scenes),
                      read_bytes(MARK_FILE))

    def cover(self, i):
        """Content-distinct cover of op (or group) i."""
        rng = np.random.default_rng([self.seed, i])
        shift = rng.integers(0, self.size, 2)
        noise = rng.integers(-1, 2, (self.size, self.size))
        scene = self.scenes[i % SCENES]
        return np.clip(np.roll(scene, tuple(shift), axis=(0, 1)) + noise, 0, 255)

    def prepare(self, i):
        """Write op i's inputs; returns (argv, input digest)."""
        raise NotImplementedError

    def check(self, i, stdout, stderr):
        """Problems with op i's outputs (called after the op, untimed)."""
        raise NotImplementedError

    def output_digest(self, stdout, stderr):
        raise NotImplementedError

    def _ber(self, est):
        return float(np.mean(est != self.mark))


class Mark(Workload):
    """Write path: embed one content-distinct 1024^2 cover per op."""
    name = "mark"
    size = 1024
    tail_percentile = 90   # about 115 ops per run
    digest_ops = 8

    def prepare(self, i):
        self._cover = self.cover(i)
        write_pgm(self._cover, "cover.pgm")
        return (["embed", "cover.pgm", MARK_FILE, "marked.pgm"],
                digest(read_bytes("cover.pgm")))

    def check(self, i, stdout, stderr):
        problems = invariants.check_embed(stderr)
        cfg = watermarker.EmbedConfig()
        marked = pixmap.read_image("marked.pgm")
        tallies = watermarker.extract_votes(dwt.dwt2(self._cover, cfg.levels),
                                            dwt.dwt2(marked, cfg.levels), cfg)
        for name, structure in watermarker.DETECTORS.items():
            ber = self._ber(watermarker.decode(tallies, structure))
            if ber != 0:
                problems.append(f"marked output re-extracts with ber {ber} "
                                f"under detector {name}")
        return problems

    def output_digest(self, stdout, stderr):
        return digest(read_bytes("marked.pgm"), stderr)


class Verify(Workload):
    """Read path: `extract --truth` on 512^2 suspects made in advance.

    Each cover has eight suspects, one clean and seven attacked, so seven
    of every eight ops reuse a cover already seen.  The detector alternates
    between I and II and swaps parity every group, so clean copies meet
    both detectors.
    """
    name = "verify"
    size = 512
    tail_percentile = 90   # about 740 ops per run; p99 would need 1000
    digest_ops = 16
    SUSPECTS = ("clean", "median", "jpeg:q=50", "crop_half", "awgn",
                "rescale", "gamma", "lpf")

    def __init__(self, seed):
        super().__init__(seed)
        self._group = None

    def setup(self):
        self._group = None
        return super().setup()

    def _write_group(self, g):
        cover = self.cover(g)
        marked, _ = watermarker.embed_image(cover, self.mark)
        marked = pixmap.quantize(marked)
        write_pgm(cover, "cover.pgm")
        for k, spec in enumerate(self.SUSPECTS):
            img = marked if spec == "clean" else attacks.apply_attack(
                marked, attacks.parse_spec(spec), default_seed=self.seed + g)
            write_pgm(img, f"suspect_{k}.pgm")
        self._group = g

    def prepare(self, i):
        g, k = divmod(i, len(self.SUSPECTS))
        if g != self._group:
            self._write_group(g)
        detector = "I" if (g + k) % 2 == 0 else "II"
        suspect = f"suspect_{k}.pgm"
        return (["extract", "cover.pgm", suspect, "est.pbm",
                 "--detector", detector, "--truth", MARK_FILE],
                digest(read_bytes("cover.pgm"), read_bytes(suspect)))

    def check(self, i, stdout, stderr):
        problems = invariants.check_extract(
            stdout, clean=i % len(self.SUSPECTS) == 0)
        parsed = invariants.parse_extract(stdout)
        if parsed is not None:
            written = self._ber(pixmap.read_watermark("est.pbm"))
            if abs(written - parsed[0]) > 1e-6:
                problems.append(f"printed ber {parsed[0]} but est.pbm has "
                                f"ber {written}")
        return problems

    def output_digest(self, stdout, stderr):
        return digest(read_bytes("est.pbm"), stdout)


class Robustness(Workload):
    """Researcher path: the default bench with the JPEG sweep on a 256^2 cover."""
    name = "robustness"
    size = 256
    tail_percentile = 75   # about 55 ops per run; p90 would need 100
    digest_ops = 8
    ROWS = 14         # len(attacks.DEFAULT_BENCH) when the benchmark was set
    SWEEP_ROWS = 18   # qualities 10..90 step 10, two detectors

    def prepare(self, i):
        write_pgm(self.cover(i), "cover.pgm")
        return (["bench", "cover.pgm", MARK_FILE, "--jpeg-sweep", "10..90",
                 "--seed", str(self.seed), "--out", "report.json"],
                digest(read_bytes("cover.pgm")))

    def check(self, i, stdout, stderr):
        with open("report.json") as fh:
            report = json.load(fh)
        with open("report_sweep.csv") as fh:
            sweep = fh.read()
        return (invariants.check_bench_report(report, self.ROWS)
                + invariants.check_sweep_csv(sweep, self.SWEEP_ROWS))

    def output_digest(self, stdout, stderr):
        return digest(read_bytes("report.json"), read_bytes("report_sweep.csv"))


WORKLOADS = {w.name: w for w in (Mark, Verify, Robustness)}
