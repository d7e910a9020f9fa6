"""Reference implementations the production fast paths are pinned to."""
