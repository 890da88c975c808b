"""``python -m strongeq``: the command-line interface of `strongeq.cli`."""

from .cli import main

raise SystemExit(main())
