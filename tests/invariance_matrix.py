#!/usr/bin/env python3
"""Invariance matrix: a replay of the seed-2001 mini-study and smoke campaign
writes the same bytes however it is watched or split.

Usage: invariance_matrix.py BUILD_DIR      (ctest -L invariance runs it)

Thread count, --trace, --telemetry, the status exporter, --cc reno and shard
merging must never change the deterministic output. Every row is checked
against a pinned digest, not against a sibling run, so a change that moves
the output under every flag at once still fails. Three tables:

  STRICT    (tool, argv): malformed or unknown flags; the tool must exit 2.
  STUDY     (threads, flags): `realdata summary --seed 2001 --scale 0.02`;
            the study cache md5 must equal STUDY_MD5.
  CAMPAIGN  (shards, flags): the smoke campaign, whole or as shards merged
            by rvmerge; rollup.bin and records.spill must equal CAMPAIGN_MD5.

Post-checks inspect what a row's flags write (Chrome trace, series CSV,
summary report, cache placement, the live status endpoints), print every
figure from the cached study, and feed retracer a spill with out-of-range
enum bytes. The rvmerge gap and dead-shard checks, the quick
congestion-control ordering check and rtspdump's view of a TCP session run
beside the tables. Rows run a few at a time, each under a time limit.
"""

import concurrent.futures
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

STUDY_MD5 = "683e9868183d9ca69651db48f8dfc9b7"
# rollup.bin is the serialized rollup (md5 80c7e8f04a01f39b08e7070eeb1e4acb)
# followed by those 16 digest bytes.
CAMPAIGN_MD5 = {"rollup.bin": "c90233de49bf43134ce755c70c6781c5",
                "records.spill": "959cf83043c928e882452893b5bdd7c8"}

STUDY_CMD = ["summary", "--seed", "2001", "--scale", "0.02"]
CAMPAIGN_CMD = ["campaign", "--seed", "2001", "--threads", "2",
                "--scale", "0.02", "--plays-scale", "2", "--watch", "2"]

# Rows wait at most this long; a rejected flag returns at once.
ROW_TIMEOUT_S = 900
STRICT_TIMEOUT_S = 60
WORKERS = 3

CACHE = ["--cache-dir", "cache"]
TELEMETRY = ["--telemetry", "--series-csv", "series.csv",
             "--trace", "trace.json", "--profile"]

STRICT = [
    # Malformed numbers and a missing path.
    ("realdata", ["summary", "--seed=20o1"]),
    ("realdata", ["summary", "--scale=0.5x"]),
    ("realdata", ["summary", "--trace"]),
    # Telemetry flags.
    ("realdata", ["summary", "--telemetry-interval-ms=0"]),
    ("realdata", ["summary", "--telemetry-interval-ms=5o0"]),
    ("realdata", ["summary", "--trace", "t.json", "--trace-play=1,2,3"]),
    ("realdata", ["summary", "--trace", "t.json", "--trace-play=-1,2"]),
    ("realdata", ["summary", "--series-csv"]),
    ("realdata", ["summary", "--flight-dir"]),
    # Congestion control: unknown name, wrong case, no value.
    ("realdata", ["summary", "--cc", "newreno"]),
    ("realdata", ["summary", "--cc", "Reno"]),
    ("realdata", ["summary", "--cc"]),
    # Campaign and cache flags.
    ("realdata", ["campaign", "--plays-scale", "0"]),
    ("realdata", ["campaign", "--plays-scale", "3x"]),
    ("realdata", ["campaign", "--shard", "4/4"]),
    ("realdata", ["campaign", "--shard", "1-4"]),
    ("realdata", ["campaign", "--shard", "0/0"]),
    ("realdata", ["campaign", "--spill-dir"]),
    ("realdata", ["campaign", "--chunk-users", "0"]),
    ("realdata", ["campaign", "--watch", "0"]),
    # A campaign has no in-memory study to trace, export, profile or cache.
    ("realdata", ["campaign", "--trace", "t.json"]),
    ("realdata", ["campaign", "--trace-play", "0,0"]),
    ("realdata", ["campaign", "--series-csv", "s.csv"]),
    ("realdata", ["campaign", "--flight-dir", "fd"]),
    ("realdata", ["campaign", "--profile"]),
    ("realdata", ["campaign", "--cache-dir", "cd"]),
    ("realdata", ["summary", "--cache-dir"]),
    # Status exporter and heartbeats; `blocker` is a file, not a directory.
    ("realdata", ["summary", "--status-port", "70000"]),
    ("realdata", ["summary", "--status-port", "abc"]),
    ("realdata", ["summary", "--status-port"]),
    ("realdata", ["summary", "--status-port=0", "--status-hold-ms=-5"]),
    ("realdata", ["campaign", "--heartbeat-dir"]),
    ("realdata", ["campaign", "--scale", "0.01",
                  "--heartbeat-dir", "blocker/hb"]),
    ("rvmerge", ["--status"]),
    # Unknown flags, out-of-range config and an unknown slice metric.
    ("realdata", ["summary", "--scale", "0.01", "--thread", "2"]),
    ("realdata", ["summary", "--scale", "0.01", "--watch", "2"]),
    ("realdata", ["slice", "--scale", "0.01", "--metric", "bogus"]),
    ("realdata", ["summary", "--threads", "-1"]),
    ("realdata", ["campaign", "--threads", "-1"]),
    ("realdata", ["summary", "--scale", "0"]),
    ("realdata", ["summary", "--scale", "1.5"]),
    ("realdata", ["summary", "--scale", "-0.1"]),
    ("retracer", ["--clip", "3", "--conection", "modem"]),
    ("rtspdump", ["--clip", "3", "--packet"]),
    ("rtspdump", ["--seed", "x"]),
    # Unknown names for the single-play flags.
    ("retracer", ["--connection", "cable"]),
    ("retracer", ["--region", "mars"]),
    ("retracer", ["--protocol", "udp"]),
    ("rtspdump", ["--connection", "cable"]),
    ("rtspdump", ["--protocol", "xyz"]),
    # A typo or a missing figure is refused before any study work, and the
    # figures that need no study take no study-only flag.
    ("realdata", ["sumary"]),
    ("realdata", ["fig", "99"]),
    ("realdata", ["fig"]),
    ("realdata", ["fig", "1", "--trace", "t.json"]),
    ("rvmerge", ["a", "b", "--out", "m", "--reprot"]),
]

STUDY = [
    (1, []),  # no --cache-dir: the cache lands in ./.rv_cache
    (2, CACHE),
    (2, CACHE + ["--trace", "trace.json"]),
    (1, CACHE + TELEMETRY),
    (2, CACHE + TELEMETRY),
    (2, CACHE + ["--cc", "reno"]),
    (1, CACHE + ["--status-port", "0"]),
    (2, CACHE + ["--status-port", "0"]),
]

CAMPAIGN = [
    (1, []),
    (4, []),
    (1, ["--status-port", "0", "--status-hold-ms", "4000",
         "--heartbeat-dir", "hb"]),
]

# Every figure `realdata fig N` prints; 1 and 3 need no study.
FIGURES = [1, 3] + list(range(5, 29))
# The kColEnums column of the RVSP spill: its index in the frame's column
# table, and the count of each enum coded into it (user_group, connection,
# server_group, protocol), one byte each per record.
SPILL_ENUM_COLUMN = 12
SPILL_ENUM_COUNTS = (4, 3, 5, 2)

SERIES_HEADER = ("user_id,record_slot,clip_id,server,t_usec,buffer_sec,fps,"
                 "bandwidth_kbps,cwnd_bytes,retx_per_sec,pacing_kbps,"
                 "cc_state,access_occupancy,access_drops,"
                 "isp-uplink_occupancy,isp-uplink_drops,"
                 "wan-corridor_occupancy,wan-corridor_drops,"
                 "server-access_occupancy,server-access_drops")
SUMMARY_MARKERS = ("Telemetry rollup", "bottleneck", "Study profile",
                   "worker")
COUNTER_TRACKS = ("buffer_sec", "fps", "bandwidth_kbps", "access_occupancy")
METRIC_FAMILIES = ("rv_plays_completed_total", "rv_users_completed_total",
                   "rv_spill_bytes_written_total", "rv_play_fps_bucket",
                   "rv_resident_memory_kilobytes")
PROGRESS_KEYS = ("plays", "users_done", "users_total", "plays_per_sec",
                 "eta_seconds", "shard_index", "rss_kb")
# One Prometheus text-exposition sample: `name[{labels}] value`.
SAMPLE_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? "
                       r"(NaN|[+-]?Inf|[-+0-9.eE]+)$")


class Matrix:
    def __init__(self, build_dir, scratch):
        self.bin = {
            "realdata": os.path.join(build_dir, "tools", "realdata"),
            "retracer": os.path.join(build_dir, "tools", "retracer"),
            "rtspdump": os.path.join(build_dir, "tools", "rtspdump"),
            "rvmerge": os.path.join(build_dir, "tools", "rvmerge"),
            "cc_bench": os.path.join(build_dir, "bench", "bench_ablation_cc"),
        }
        self.scratch = scratch
        self.series = {}  # threads -> series CSV bytes

    def run(self, tool, argv, cwd, timeout=ROW_TIMEOUT_S):
        """Runs one tool; returns (exit code or None on timeout, out, err)."""
        try:
            p = subprocess.run([self.bin[tool]] + argv, cwd=cwd,
                               capture_output=True, text=True,
                               timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "", "timed out after %ds" % timeout
        return p.returncode, p.stdout, p.stderr

    def row_dir(self, name):
        path = os.path.join(self.scratch, re.sub(r"[^a-zA-Z0-9]+", "_", name))
        os.makedirs(path)
        return path

    def strict_row(self, tool, argv):
        cwd = os.path.join(self.scratch, "strict")
        rc, _, err = self.run(tool, argv, cwd, timeout=STRICT_TIMEOUT_S)
        if rc != 2:
            return ["exited %s, expected 2: %s" % (rc, err.strip()[-300:])]
        return []

    def study_row(self, threads, flags):
        cwd = self.row_dir("study t%d %s" % (threads, " ".join(flags)))
        rc, out, err = self.run(
            "realdata", STUDY_CMD + ["--threads", str(threads)] + flags, cwd)
        if rc != 0:
            return ["exited %s: %s" % (rc, err.strip()[-500:])]
        fails = []
        default_cache = os.path.join(cwd, ".rv_cache")
        if "--cache-dir" in flags:
            cache_dir = os.path.join(cwd, flags[flags.index("--cache-dir") + 1])
            if os.path.isdir(default_cache):
                fails.append("--cache-dir run also wrote ./.rv_cache")
        else:
            cache_dir = default_cache
        caches = (sorted(f for f in os.listdir(cache_dir)
                         if f.endswith(".cache"))
                  if os.path.isdir(cache_dir) else [])
        if len(caches) != 1:
            return fails + ["expected one .cache file in %s, got %r" %
                            (cache_dir, caches)]
        digest = md5_file(os.path.join(cache_dir, caches[0]))
        if digest != STUDY_MD5:
            fails.append("cache md5 %s != pinned %s" % (digest, STUDY_MD5))
        if "--trace" in flags:
            fails += check_trace(os.path.join(cwd, "trace.json"),
                                 "--telemetry" in flags)
        if "--series-csv" in flags:
            with open(os.path.join(cwd, "series.csv"), "rb") as f:
                self.series[threads] = f.read()
            fails += check_series(self.series[threads])
        if "--telemetry" in flags and "--profile" in flags:
            fails += ["%r missing from summary output" % m
                      for m in SUMMARY_MARKERS if m not in out]
        if flags == CACHE:
            fails += self.figures(cwd)
        return fails

    def figures(self, cwd):
        """Every figure prints from the cached study; 1 and 3 need none."""
        fails = []
        for n in FIGURES:
            argv = ["fig", str(n)] + STUDY_CMD[1:]
            if n not in (1, 3):
                argv += CACHE
            rc, out, err = self.run("realdata", argv, cwd)
            if rc != 0 or "paper vs measured" not in out:
                fails.append("fig %d exited %s without a paper vs measured "
                             "block: %s" % (n, rc, err.strip()[-300:]))
        if os.path.exists(os.path.join(cwd, ".rv_cache")):
            fails.append("fig 1 or fig 3 wrote a study cache")
        return fails

    def campaign_row(self, shards, flags):
        cwd = self.row_dir("campaign x%d %s" % (shards, " ".join(flags)))
        out_dir = os.path.join(cwd, "out")
        if shards == 1 and "--status-port" in flags:
            fails = self.watch_status(CAMPAIGN_CMD + flags +
                                      ["--spill-dir", out_dir], cwd)
        elif shards == 1:
            rc, _, err = self.run("realdata", CAMPAIGN_CMD + flags +
                                  ["--spill-dir", out_dir], cwd)
            fails = [] if rc == 0 else ["exited %s: %s" % (rc, err[-500:])]
        else:
            fails = self.sharded(shards, flags, cwd, out_dir)
        if fails:
            return fails
        for name, want in CAMPAIGN_MD5.items():
            got = md5_file(os.path.join(out_dir, name))
            if got != want:
                fails.append("%s md5 %s != pinned %s" % (name, got, want))
        if shards == 1 and not flags and not fails:
            fails += self.bad_enum_spill(out_dir, cwd)
        return fails

    def bad_enum_spill(self, out_dir, cwd):
        """retracer --spill-read rejects each out-of-range enum byte."""
        with open(os.path.join(out_dir, "records.spill"), "rb") as f:
            good = f.read()
        # Header (magic, version), then the first frame: record and column
        # counts, one u32 length per column, then the column payloads.
        lengths = struct.unpack_from("<%dI" % SPILL_ENUM_COLUMN, good, 16)
        enums = 16 + 4 * struct.unpack_from("<I", good, 12)[0] + sum(lengths)
        fails = []
        for i, count in enumerate(SPILL_ENUM_COUNTS):
            path = os.path.join(cwd, "bad_enum%d.spill" % i)
            with open(path, "wb") as f:
                f.write(good[:enums + i] + bytes([count]) +
                        good[enums + i + 1:])
            rc, out, _ = self.run("retracer", ["--spill-read", path,
                                               "--spill-record", "0"], cwd)
            if rc == 0:
                fails.append("retracer read enum byte %d = %d (out of range) "
                             "and exited 0:\n%s" % (i, count, out))
        return fails

    def sharded(self, shards, flags, cwd, out_dir):
        dirs = []
        for i in range(shards):
            dirs.append(os.path.join(cwd, "shard%d" % i))
            rc, _, err = self.run(
                "realdata", CAMPAIGN_CMD + flags +
                ["--shard", "%d/%d" % (i, shards), "--spill-dir", dirs[-1]],
                cwd)
            if rc != 0:
                return ["shard %d exited %s: %s" % (i, rc, err[-500:])]
        rc, out, err = self.run("rvmerge", dirs + ["--out", out_dir,
                                                   "--report"], cwd)
        if rc != 0:
            return ["rvmerge exited %s:\n%s%s" % (rc, out, err)]
        # A missing middle shard must be a hard merge error.
        rc, _, _ = self.run("rvmerge", [dirs[0], dirs[2], "--out",
                                        os.path.join(cwd, "gap")], cwd)
        if rc == 0:
            return ["merging shards 0 and 2 without 1 exited 0"]
        return []

    def watch_status(self, argv, cwd):
        """Runs a campaign with --status-port 0 and checks the live feed."""
        child = subprocess.Popen([self.bin["realdata"]] + argv, cwd=cwd,
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE, text=True)
        lines = []
        port_box = {}
        port_seen = threading.Event()

        def drain():
            for line in child.stderr:
                lines.append(line)
                m = re.search(r"http://127\.0\.0\.1:(\d+)/", line)
                if m and "port" not in port_box:
                    port_box["port"] = int(m.group(1))
                    port_seen.set()
            port_seen.set()

        drainer = threading.Thread(target=drain)
        drainer.start()
        try:
            fails = self.poll_endpoints(child, port_seen, port_box, lines)
            if not fails:
                child.wait(timeout=ROW_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            drainer.join()
        if fails:
            return fails
        if child.returncode != 0:
            return ["campaign exited %d:\n%s" % (child.returncode,
                                                 "".join(lines))]
        # The stderr progress line carries the same rate feed.
        if not any("plays/s" in line for line in lines):
            fails.append("stderr progress has no plays/s rate")
        hb_dir = os.path.join(cwd, argv[argv.index("--heartbeat-dir") + 1])
        hb = json.load(open(os.path.join(hb_dir, "heartbeat-0.json")))
        if hb.get("status") != "done":
            fails.append("final heartbeat status %r" % hb.get("status"))
        rc, out, _ = self.run("rvmerge", ["--status", hb_dir], cwd)
        if rc != 0 or "done" not in out:
            fails.append("rvmerge --status exited %s:\n%s" % (rc, out))
        return fails

    def poll_endpoints(self, child, port_seen, port_box, lines):
        port_seen.wait(ROW_TIMEOUT_S)
        if "port" not in port_box:
            return ["no status port announced on stderr:\n" + "".join(lines)]

        def fetch(path):
            url = "http://127.0.0.1:%d%s" % (port_box["port"], path)
            with urllib.request.urlopen(url, timeout=5) as resp:
                return (resp.headers.get("Content-Type", ""),
                        resp.read().decode())

        progress = None
        ctype = ""
        deadline = time.monotonic() + ROW_TIMEOUT_S
        while time.monotonic() < deadline and child.poll() is None:
            try:
                ctype, body = fetch("/progress")
            except (urllib.error.URLError, OSError):
                time.sleep(0.1)
                continue
            progress = json.loads(body)
            if progress.get("done"):
                break
            time.sleep(0.2)
        if not progress or not progress.get("done"):
            return ["/progress never reported done (last: %r)" % (progress,)]
        fails = []
        if "application/json" not in ctype:
            fails.append("/progress content-type %r" % ctype)
        fails += ["/progress is missing %r" % k
                  for k in PROGRESS_KEYS if k not in progress]
        ctype, text = fetch("/metrics")
        if "text/plain" not in ctype or "version=0.0.4" not in ctype:
            fails.append("/metrics content-type %r" % ctype)
        fails += ["/metrics line %d does not parse: %r" % (i + 1, line)
                  for i, line in enumerate(text.splitlines())
                  if line and not line.startswith("#")
                  and not SAMPLE_RE.match(line)]
        fails += ["/metrics is missing the %s family" % f
                  for f in METRIC_FAMILIES if f not in text]
        _, health = fetch("/healthz")
        if "ok" not in health:
            fails.append("/healthz answered %r" % health)
        return fails

    def dead_shard(self):
        """A stale heartbeat whose pid is gone renders DEAD, exit 1."""
        hb_dir = self.row_dir("hb dead")
        now = time.time()
        for i, pid, ts in ((0, os.getpid(), now),
                           (1, 2 ** 22 + 12345, now - 3600)):
            with open(os.path.join(hb_dir, "heartbeat-%d.json" % i),
                      "w") as f:
                f.write('{"schema":"rv-heartbeat-v1","shard_index":%d,'
                        '"shard_count":2,"pid":%d,"timestamp_unix":%.1f,'
                        '"status":"running","users_done":5,"users_total":10,'
                        '"plays":50,"last_fold_user":5,"plays_per_sec":1.5,'
                        '"rss_kb":1000,"seed":2001}\n' % (i, pid, ts))
        rc, out, _ = self.run("rvmerge", ["--status", hb_dir,
                                          "--stale-after", "15"], hb_dir)
        if rc != 1 or "DEAD" not in out or "need attention" not in out:
            return ["dead shard not reported (exit %s):\n%s" % (rc, out)]
        return []

    def rtspdump_tcp(self):
        """rtspdump shows a TCP session's control exchange and media."""
        rc, out, err = self.run("rtspdump", ["--protocol", "tcp", "--clip",
                                             "3"], self.row_dir("rtspdump tcp"))
        if rc != 0:
            return ["rtspdump exited %s: %s" % (rc, err[-500:])]
        lines = out.splitlines()
        fails = []
        if not any(" PLAY " in line for line in lines):
            fails.append("no PLAY line in rtspdump --protocol tcp")
        if not any(" data " in line for line in lines):
            fails.append("no data line in rtspdump --protocol tcp")
        return fails

    def cc_ordering(self):
        """Quick CC cell: under 5% random loss BBR delivers >= 2x Reno."""
        cwd = self.row_dir("cc quick")
        grid_path = os.path.join(cwd, "cc_quick.json")
        rc, _, err = self.run("cc_bench", ["--quick", "--grid-json=" +
                                           grid_path,
                                           "--benchmark_filter=nonexistent"],
                              cwd)
        if rc != 0:
            return ["bench_ablation_cc exited %s: %s" % (rc, err[-500:])]
        cell = "loss05_jitter00"
        goodput = {cc: json.load(open(grid_path))["grid"][cc][cell]["goodput"]
                   for cc in ("reno", "cubic", "bbr")}
        fails = ["%s goodput %r at %s" % (cc, v, cell)
                 for cc, v in goodput.items() if v <= 0]
        if goodput["bbr"] < 2.0 * goodput["reno"]:
            fails.append("bbr goodput %.0f < 2x reno %.0f at %s" %
                         (goodput["bbr"], goodput["reno"], cell))
        return fails


def md5_file(path):
    with open(path, "rb") as f:
        return hashlib.md5(f.read()).hexdigest()


def check_trace(path, telemetry):
    events = json.load(open(path)).get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["%s has no traceEvents" % path]
    fails = []
    phases = {e.get("ph") for e in events}
    if not phases & {"B", "i", "X"}:
        fails.append("no span/instant events in the trace (phases %r)" %
                     sorted(phases))
    if telemetry:
        counters = {e.get("name") for e in events if e.get("ph") == "C"}
        fails += ["no %r counter track in the trace" % want
                  for want in COUNTER_TRACKS if want not in counters]
    return fails


def check_series(data):
    lines = data.split(b"\n")
    if lines[0].decode() != SERIES_HEADER:
        return ["series CSV header %r != expected" % lines[0].decode()]
    if len([line for line in lines if line]) < 2:
        return ["series CSV has no samples"]
    return []


def timed(fn, *args):
    """Runs one row; returns (failure lines, seconds)."""
    start = time.monotonic()
    try:
        fails = fn(*args)
    except Exception as e:  # a missing or unreadable artefact
        fails = ["raised %r" % e]
    return fails, time.monotonic() - start


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: invariance_matrix.py BUILD_DIR")
    scratch = tempfile.mkdtemp(prefix="rv_invariance_")
    matrix = Matrix(os.path.abspath(sys.argv[1]), scratch)
    os.makedirs(os.path.join(scratch, "strict"))
    with open(os.path.join(scratch, "strict", "blocker"), "w") as f:
        f.write("not a directory\n")

    # Longest rows first, so the pool finishes together.
    jobs = [("campaign x%d %s" % (n, " ".join(f)), matrix.campaign_row, n, f)
            for n, f in reversed(CAMPAIGN)]
    jobs += [("study t%d %s" % (t, " ".join(f)), matrix.study_row, t, f)
             for t, f in STUDY]
    jobs += [("rvmerge dead shard", matrix.dead_shard),
             ("cc quick ordering", matrix.cc_ordering),
             ("rtspdump tcp session", matrix.rtspdump_tcp)]
    jobs += [("strict %s %s" % (tool, " ".join(argv)), matrix.strict_row,
              tool, argv) for tool, argv in STRICT]
    t0 = time.monotonic()
    failed = 0
    with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        futures = [(job[0], pool.submit(timed, *job[1:])) for job in jobs]
        for name, future in futures:
            fails, seconds = future.result()
            failed += bool(fails)
            print("%-4s %6.1fs  %s" % ("FAIL" if fails else "ok", seconds,
                                       name.strip()))
            for f in fails:
                print("       " + f.replace("\n", "\n       "))
    # The series a play samples do not depend on the worker count.
    if set(matrix.series) != {1, 2} or matrix.series[1] != matrix.series[2]:
        failed += 1
        print("FAIL series CSV bytes differ between 1 and 2 threads")
    wall = time.monotonic() - t0
    if failed:
        print("invariance matrix FAILED: %d of %d rows (%.1fs); scratch "
              "kept at %s" % (failed, len(jobs) + 1, wall, scratch))
        sys.exit(1)
    shutil.rmtree(scratch, ignore_errors=True)
    print("invariance matrix passed: %d rows in %.1fs" % (len(jobs) + 1,
                                                          wall))


if __name__ == "__main__":
    main()
