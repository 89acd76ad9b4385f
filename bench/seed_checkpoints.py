"""Write untrained, seeded agent checkpoints for the benchmark's set-up.

    PYTHONPATH=src python bench/seed_checkpoints.py OUT_DIR SEED AGENT1_SIZE

writes ``OUT_DIR/agent1.damc`` (Agent-1 at AGENT1_SIZE x AGENT1_SIZE) and
``OUT_DIR/agent2.damc``, built with ``agents.build_agent1`` /
``agents.build_agent2`` from SEED and saved with ``agents.save_agent``.
"""

import sys
from pathlib import Path

from deepagent import agents


def main(out_dir: str, seed: str, agent1_size: str) -> int:
    out = Path(out_dir)
    agents.save_agent(agents.build_agent1(int(seed), input_size=int(agent1_size)),
                      out / "agent1.damc")
    agents.save_agent(agents.build_agent2(int(seed)), out / "agent2.damc")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
