"""Starts the cli workload's commands from a small process.

A child's ``ru_maxrss`` includes the memory of the process that forked
it, so commands started by the benchmark process itself (numpy and the
program loaded) would report its size, not their own.  This process
imports nothing heavy.  It reads one JSON request per line,
``{"argv": [...], "cwd": ..., "env": {...}}``, runs the command to its
end and answers ``{"code": ..., "output": ..., "maxrss_kb": ...}``.
"""

import json
import os
import subprocess
import sys


def main():
    for line in sys.stdin:
        req = json.loads(line)
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        output = proc.stdout.read().decode(errors="replace")
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "output": output, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
