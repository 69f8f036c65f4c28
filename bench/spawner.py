"""Run commands for the benchmark worker and report each child's peak RSS.

A child's peak RSS (ru_maxrss) starts from the RSS of the process that
forked it, so the worker, once it holds numpy and its inputs, cannot
measure a smaller CLI child itself.  The worker starts this module as a
separate small process before it imports anything large; the process
reads one JSON command list per line on stdin, runs it, and answers
with one JSON line {"returncode", "maxrss_kb", "stderr"}.
"""

import json
import os
import subprocess
import sys


class Spawner:
    """Client side: start the spawner process and run commands through it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.peak_kb = 0

    def run(self, cmd: list) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        self.peak_kb = max(self.peak_kb, reply["maxrss_kb"])
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def serve() -> None:
    for line in sys.stdin:
        proc = subprocess.Popen(json.loads(line), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        err = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        print(json.dumps({"returncode": os.waitstatus_to_exitcode(status),
                          "maxrss_kb": usage.ru_maxrss, "stderr": err[-500:]}),
              flush=True)


if __name__ == "__main__":
    serve()
