-- 0001: the perf-history tables, byte-for-byte the schema HistoryStore
-- created before the migration chain, so a pre-chain history db opens
-- as a no-op and keeps every run.  Its `meta` version row is no longer
-- read: `PRAGMA user_version` carries the version.

CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    suite TEXT NOT NULL,
    git_sha TEXT,
    machine_id TEXT NOT NULL,
    machine TEXT NOT NULL,
    created_at TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    UNIQUE (suite, git_sha, machine_id, created_at)
);
CREATE TABLE IF NOT EXISTS cases (
    run_id INTEGER NOT NULL REFERENCES runs(id),
    name TEXT NOT NULL,
    scale TEXT,
    rounds INTEGER,
    best_s REAL NOT NULL,
    median_s REAL NOT NULL,
    iqr_s REAL,
    speedup REAL,
    floor REAL,
    tolerance REAL,
    PRIMARY KEY (run_id, name)
);
CREATE INDEX IF NOT EXISTS idx_cases_name ON cases (name);
