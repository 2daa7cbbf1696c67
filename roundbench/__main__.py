"""``python -m roundbench``; guarded, because the swarm's spawned peers re-import it."""

from roundbench.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
