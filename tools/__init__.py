# Marks tools/ as a package so the analyzer runs as `python3 -m
# tools.analyze` from the repo root (how CI invokes it).
