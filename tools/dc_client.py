#!/usr/bin/env python3
"""Client and CI smoke driver for dc_serve (line-delimited JSON over TCP).

Subcommands:
    health            print the server's health response
    stats             print the server's operational counters
    solve             send one solve request (--task NAME, or --request/
                      --examples-json for an inline task; --domain routes
                      to a named domain on a multi-domain server)
    reload            hot-swap one domain's checkpoint/model: the server
                      loads and validates off the serving path, then
                      atomically publishes a new library epoch
    smoke             start dc_serve several times and run the acceptance
                      scenario: concurrent deterministic solves, a
                      past-deadline request answered with a structured
                      timeout, queue-full admission rejection, graceful
                      SIGTERM shutdown mid-load with exit code 0,
                      pipelined solves on one worker answering
                      bit-identically to sequential ones, and (with
                      --checkpoint-b) a SIGHUP hot reload where answers
                      change only after the new epoch publishes.

The smoke subcommand is what CI runs; it needs --server pointing at the
dc_serve binary and exits nonzero on the first failed check.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time


class Client:
    """One connection speaking the dc_serve protocol."""

    def __init__(self, host, port, timeout=60.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.buf = b""
        self.next_id = 0

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass

    def send(self, method, params=None, req_id=None):
        if req_id is None:
            self.next_id += 1
            req_id = self.next_id
        req = {"id": req_id, "method": method}
        if params is not None:
            req["params"] = params
        self.sock.sendall((json.dumps(req) + "\n").encode())
        return req_id

    def recv_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line.decode())

    def request(self, method, params=None):
        req_id = self.send(method, params)
        resp = self.recv_line()
        if resp.get("id") != req_id:
            raise AssertionError(
                "response id %r does not match request id %r"
                % (resp.get("id"), req_id)
            )
        return resp


# The standing example tasks the smoke scenario uses. IDENTITY is solved
# almost immediately by (lambda $0); UNSOLVABLE maps the same input to two
# different outputs, so no program satisfies it and the search runs until
# its node budget or deadline — a controllable way to occupy a worker.
IDENTITY = {
    "name": "identity",
    "request": "list(int) -> list(int)",
    "examples": [
        {"inputs": [[1, 2, 3]], "output": [1, 2, 3]},
        {"inputs": [[5, 4]], "output": [5, 4]},
    ],
}
UNSOLVABLE = {
    "name": "unsolvable",
    "request": "int -> int",
    "examples": [
        {"inputs": [1], "output": 2},
        {"inputs": [1], "output": 3},
    ],
}
# HOLD is unsolvable the same way, but routed to the origami domain, whose
# 19-nat search bound takes far longer to exhaust than a few seconds (a
# list search gives up at 15 nats, about 1.3M nodes for UNSOLVABLE). With
# a node budget of 10^8 it ends at its deadline, not by exhausting its
# space, so it holds a worker for as long as the deadline says however
# fast the search runs.
HOLD = {
    "name": "hold",
    "domain": "origami",
    "request": "list(int) -> list(int)",
    "examples": [
        {"inputs": [[1]], "output": [2]},
        {"inputs": [[1]], "output": [3]},
    ],
}


def solve_params(task, timeout_ms=None, node_budget=None):
    params = dict(task)
    if timeout_ms is not None:
        params["timeout_ms"] = timeout_ms
    if node_budget is not None:
        params["node_budget"] = node_budget
    return params


class ServerProcess:
    """A dc_serve instance on an ephemeral port."""

    def __init__(self, binary, extra_args):
        self.port_file = tempfile.NamedTemporaryFile(
            prefix="dc_serve_port_", suffix=".txt", delete=False
        )
        self.port_file.close()
        os.unlink(self.port_file.name)
        self.proc = subprocess.Popen(
            [binary, "--port", "0", "--port-file", self.port_file.name]
            + extra_args,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        self.port = self._wait_for_port()

    def _wait_for_port(self, timeout=30.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            if self.proc.poll() is not None:
                out = self.proc.stdout.read().decode()
                raise RuntimeError(
                    "dc_serve exited early (rc=%d):\n%s"
                    % (self.proc.returncode, out)
                )
            try:
                with open(self.port_file.name) as f:
                    text = f.read().strip()
                if text:
                    return int(text)
            except FileNotFoundError:
                pass
            time.sleep(0.05)
        raise RuntimeError("dc_serve did not write its port file in time")

    def connect(self):
        return Client("127.0.0.1", self.port)

    def sigterm(self):
        self.proc.send_signal(signal.SIGTERM)

    def sighup(self):
        self.proc.send_signal(signal.SIGHUP)

    def wait(self, timeout=60.0):
        rc = self.proc.wait(timeout=timeout)
        out = self.proc.stdout.read().decode()
        return rc, out

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        try:
            os.unlink(self.port_file.name)
        except OSError:
            pass


def check(cond, what):
    if not cond:
        raise AssertionError("FAIL: " + what)
    print("ok: " + what)


def smoke(args):
    common = ["--domain", args.domain]
    if args.checkpoint:
        common += ["--checkpoint", args.checkpoint]
    if args.model:
        common += ["--model", args.model]

    # --- Scenario 1: concurrency, determinism, deadlines -----------------
    srv = ServerProcess(
        args.server, common + ["--workers", "2", "--queue", "8"]
    )
    try:
        c = srv.connect()
        health = c.request("health")
        check(
            health.get("ok") and health["result"]["status"] == "ok",
            "health endpoint answers ok",
        )

        # N parallel clients, same request: every response is solved and
        # carries the identical program list (per-request determinism is
        # independent of server load — compare programs, not timings).
        results = [None] * 4
        errors = []

        def one_solve(i):
            try:
                cc = srv.connect()
                results[i] = cc.request(
                    "solve",
                    solve_params(
                        IDENTITY, timeout_ms=60000, node_budget=50000
                    ),
                )
                cc.close()
            except Exception as e:  # surfaced below
                errors.append(e)

        threads = [
            threading.Thread(target=one_solve, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        check(not errors, "no client errors during concurrent solves")
        check(
            all(r and r.get("ok") for r in results),
            "all concurrent solves succeeded",
        )
        check(
            all(
                r["result"]["status"] == "solved" and r["result"]["programs"]
                for r in results
            ),
            "every concurrent solve found programs",
        )
        first = json.dumps(results[0]["result"]["programs"])
        check(
            all(
                json.dumps(r["result"]["programs"]) == first
                for r in results
            ),
            "concurrent responses are bit-identical (deterministic)",
        )

        # A request whose deadline has (effectively) already passed comes
        # back as a structured timeout error, not a crash or a hang.
        resp = c.request(
            "solve",
            solve_params(UNSOLVABLE, timeout_ms=1, node_budget=100000000),
        )
        check(
            resp.get("ok") is False
            and resp["error"]["code"] == "timeout",
            "past-deadline request returns structured timeout",
        )

        # Malformed input is a bad_request, and the connection survives.
        c.sock.sendall(b"this is not json\n")
        bad = c.recv_line()
        check(
            bad.get("ok") is False
            and bad["error"]["code"] == "bad_request",
            "malformed line returns bad_request",
        )
        check(
            c.request("health").get("ok"),
            "connection still usable after bad_request",
        )
        c.close()

        srv.sigterm()
        rc, out = srv.wait()
        check(rc == 0, "scenario-1 server exits 0 after SIGTERM")
    finally:
        srv.kill()

    # --- Scenario 2: admission control + graceful shutdown mid-load ------
    # One worker, queue bound 1: a slow request occupies the worker, a
    # second fills the queue, a third must be rejected as overloaded. The
    # slow requests are HOLD searches on a second, origami domain group.
    # Telemetry is on so shutdown also proves it flushes metrics + trace.
    metrics_path = tempfile.mktemp(prefix="dc_serve_metrics_", suffix=".json")
    trace_path = tempfile.mktemp(prefix="dc_serve_trace_", suffix=".json")
    srv = ServerProcess(
        args.server,
        common
        + ["--domain", "origami", "--max-node-budget", "100000000",
           "--workers", "1", "--queue", "1", "--default-timeout-ms", "3000",
           "--metrics-out", metrics_path, "--trace-out", trace_path],
    )
    try:
        stats_conn = srv.connect()
        # The drain checks need request D sent while A still holds the
        # worker, so A's deadline leaves the client seconds, not
        # milliseconds, for the steps in between.
        slow = solve_params(HOLD, timeout_ms=3000, node_budget=100000000)

        conn_a = srv.connect()
        conn_a.send("solve", slow, req_id="slow-a")
        wait_until(
            lambda: occupancy(stats_conn) == (1, 0),
            "request A reaches the worker",
        )

        conn_b = srv.connect()
        conn_b.send("solve", slow, req_id="slow-b")
        wait_until(
            lambda: occupancy(stats_conn) == (2, 1),
            "request B is queued",
        )

        conn_c = srv.connect()
        resp_c = conn_c.request("solve", slow)
        check(
            resp_c.get("ok") is False
            and resp_c["error"]["code"] == "overloaded",
            "request beyond queue capacity is rejected as overloaded",
        )
        conn_c.close()

        # SIGTERM with A in flight and B queued: both must still be
        # answered (drained, here as timeouts — the task is unsolvable),
        # new work must be rejected, and the process must exit 0. The
        # rejection probe connects *before* the signal: shutdown's first
        # step closes the listen socket, so fresh connections are refused
        # outright while established ones get the structured error.
        conn_d = srv.connect()
        srv.sigterm()
        time.sleep(0.2)
        resp_d = conn_d.request("solve", slow)
        check(
            resp_d.get("ok") is False
            and resp_d["error"]["code"] == "shutting_down",
            "request during drain is rejected as shutting_down",
        )
        conn_d.close()

        resp_a = conn_a.recv_line()
        check(
            resp_a.get("id") == "slow-a"
            and resp_a.get("ok") is False
            and resp_a["error"]["code"] == "timeout",
            "in-flight request A drained with a timeout answer",
        )
        resp_b = conn_b.recv_line()
        check(
            resp_b.get("id") == "slow-b"
            and resp_b.get("ok") is False
            and resp_b["error"]["code"] == "timeout",
            "queued request B drained with a timeout answer",
        )
        conn_a.close()
        conn_b.close()
        stats_conn.close()

        rc, out = srv.wait()
        check(rc == 0, "scenario-2 server exits 0 after draining")
        check("served" in out, "final stats line printed")

        # The exports have the shapes the dc_run smoke job checks.
        with open(metrics_path) as f:
            metrics = json.load(f)
        check(
            sorted(metrics) == ["counters", "gauges", "histograms"],
            "shutdown flushed counters, gauges and histograms",
        )
        check(
            "enum.nodes_expanded" in metrics["counters"]
            and "serve.queue_depth" in metrics["gauges"]
            and "serve.solve_ms" in metrics["histograms"],
            "metrics count search nodes, queue depth and solve times",
        )
        with open(trace_path) as f:
            trace = json.load(f)
        check(
            isinstance(trace, list)
            and trace
            and all(e["ph"] == "X" for e in trace),
            "shutdown flushed a non-empty array of complete trace events",
        )
    finally:
        srv.kill()
        for path in (metrics_path, trace_path):
            try:
                os.unlink(path)
            except OSError:
                pass

    # --- Scenario 3: pipelining changes no answer -----------------------
    # One worker: pipelined requests queue behind the in-flight solve on
    # one connection. Every answer must arrive under its own id and be
    # bit-identical to the sequential answer.
    srv = ServerProcess(
        args.server, common + ["--workers", "1", "--queue", "8"]
    )
    try:
        c = srv.connect()
        params = solve_params(IDENTITY, timeout_ms=60000, node_budget=50000)

        seq = c.request("solve", params)
        check(
            seq.get("ok") and seq["result"]["status"] == "solved",
            "sequential request solved",
        )
        sig_seq = json.dumps(seq["result"]["programs"])

        n = 4
        for i in range(n):
            c.send("solve", params, req_id="pipe-%d" % i)
        resps = {}
        for _ in range(n):
            r = c.recv_line()
            resps[r.get("id")] = r
        check(
            sorted(resps) == ["pipe-%d" % i for i in range(n)],
            "all %d pipelined answers arrived (ids match)" % n,
        )
        check(
            all(r.get("ok") for r in resps.values()),
            "every pipelined solve succeeded",
        )
        check(
            all(
                json.dumps(r["result"]["programs"]) == sig_seq
                for r in resps.values()
            ),
            "pipelined answers are bit-identical to the sequential answer",
        )
        c.close()

        srv.sigterm()
        rc, out = srv.wait()
        check(rc == 0, "scenario-3 server exits 0 after pipelined solves")
    finally:
        srv.kill()

    # --- Scenario 4: SIGHUP hot reload under an open connection ----------
    # Serve checkpoint A from a "live" path, overwrite that path with
    # checkpoint B's bytes, and prove answers change only after the
    # reload publishes the new epoch — never from the file edit alone,
    # and never by dropping the established connection.
    if args.checkpoint_b:
        if not args.checkpoint:
            raise AssertionError("--checkpoint-b requires --checkpoint")
        with open(args.checkpoint, "rb") as f:
            bytes_a = f.read()
        with open(args.checkpoint_b, "rb") as f:
            bytes_b = f.read()
        check(
            bytes_a != bytes_b,
            "checkpoint A and B differ (distinct library generations)",
        )

        live = tempfile.NamedTemporaryFile(
            prefix="dc_serve_live_", suffix=".ckpt", delete=False
        )
        live.write(bytes_a)
        live.close()
        srv = ServerProcess(
            args.server,
            ["--domain", args.domain, "--checkpoint", live.name,
             "--workers", "2", "--queue", "8"],
        )
        try:
            c = srv.connect()
            params = solve_params(IDENTITY, timeout_ms=60000,
                                  node_budget=50000)

            base = c.request("solve", params)
            check(
                base.get("ok") and base["result"]["epoch"] == 1,
                "baseline solve runs on epoch 1",
            )
            sig_a = json.dumps(base["result"]["programs"])

            # Rewriting the file is invisible until a reload: the loaded
            # epoch, not the path, is the serving truth.
            with open(live.name, "wb") as f:
                f.write(bytes_b)
            mid = c.request("solve", params)
            check(
                mid["result"]["epoch"] == 1
                and json.dumps(mid["result"]["programs"]) == sig_a,
                "answers unchanged after file overwrite, before reload",
            )

            srv.sighup()
            wait_until(
                lambda: c.request("stats")["result"]["domains"][
                    args.domain]["epoch"] == 2,
                "SIGHUP publishes epoch 2",
            )
            check(
                c.request("stats")["result"]["reloads"] == 1,
                "stats counts exactly one reload",
            )

            # Same connection, new epoch, new answers.
            post = c.request("solve", params)
            check(
                post.get("ok") and post["result"]["epoch"] == 2,
                "post-reload solve runs on epoch 2",
            )
            check(
                json.dumps(post["result"]["programs"]) != sig_a,
                "post-reload answers reflect checkpoint B",
            )
            c.close()

            srv.sigterm()
            rc, out = srv.wait()
            check(rc == 0, "scenario-4 server exits 0 after hot reload")
            check("1 reloads" in out, "final stats line counts the reload")
        finally:
            srv.kill()
            try:
                os.unlink(live.name)
            except OSError:
                pass

    print("smoke: all checks passed")


def occupancy(stats_conn):
    """(accepted, queue_depth) from the stats endpoint."""
    r = stats_conn.request("stats")["result"]
    return r["accepted"], r["queue_depth"]


def wait_until(pred, what, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if pred():
            print("ok: " + what)
            return
        time.sleep(0.05)
    raise AssertionError("FAIL (timed out): " + what)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    for name in ("health", "stats"):
        p = sub.add_parser(name)
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, required=True)

    p = sub.add_parser("solve")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--task", help="corpus task name")
    p.add_argument("--request", help="inline task request type")
    p.add_argument(
        "--examples-json",
        help='inline examples, e.g. \'[{"inputs":[[1]],"output":[1]}]\'',
    )
    p.add_argument("--timeout-ms", type=int)
    p.add_argument("--node-budget", type=int)
    p.add_argument(
        "--domain", help="route to this domain on a multi-domain server"
    )

    p = sub.add_parser("reload")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument(
        "--domain", help="domain to reload (default: the server's default)"
    )
    p.add_argument(
        "--checkpoint",
        help="new grammar checkpoint path ('' clears back to the base "
        "primitives with uniform weights)",
    )
    p.add_argument(
        "--model",
        help="new recognition model path ('' serves grammar-only)",
    )
    p.add_argument("--seed", type=int, help="new domain corpus seed")

    p = sub.add_parser("smoke")
    p.add_argument("--server", required=True, help="path to dc_serve")
    p.add_argument("--domain", default="list")
    p.add_argument("--checkpoint", help="grammar checkpoint to serve")
    p.add_argument("--model", help="recognition model checkpoint")
    p.add_argument(
        "--checkpoint-b",
        help="second, different checkpoint: enables the hot-reload "
        "scenario (serve A, overwrite with B, SIGHUP, assert the "
        "answers change only after the reload)",
    )

    args = ap.parse_args()

    if args.cmd == "smoke":
        try:
            smoke(args)
        except AssertionError as e:
            print(str(e), file=sys.stderr)
            return 1
        return 0

    client = Client(args.host, args.port)
    try:
        if args.cmd in ("health", "stats"):
            resp = client.request(args.cmd)
        elif args.cmd == "reload":
            params = {}
            if args.domain:
                params["domain"] = args.domain
            if args.checkpoint is not None:
                params["checkpoint"] = args.checkpoint
            if args.model is not None:
                params["model"] = args.model
            if args.seed is not None:
                params["seed"] = args.seed
            resp = client.request("reload", params or None)
        else:
            if args.task:
                params = {"task": args.task}
            elif args.request and args.examples_json:
                params = {
                    "request": args.request,
                    "examples": json.loads(args.examples_json),
                }
            else:
                ap.error("solve needs --task or --request/--examples-json")
            if args.timeout_ms is not None:
                params["timeout_ms"] = args.timeout_ms
            if args.node_budget is not None:
                params["node_budget"] = args.node_budget
            if args.domain:
                params["domain"] = args.domain
            resp = client.request("solve", params)
    finally:
        client.close()
    print(json.dumps(resp, indent=2))
    return 0 if resp.get("ok") else 1


if __name__ == "__main__":
    sys.exit(main())
