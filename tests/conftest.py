from acceptance_artifacts import accept_root, matched_runs, teacher_pair  # noqa: F401 (fixtures)
