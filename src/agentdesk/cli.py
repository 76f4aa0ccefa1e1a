"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 provider error.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import click

from .backtest import TRAJECTORIES_FILE, load_metrics, replay as replay_run, run_backtest
from .config import load_config
from .datasynth import (
    DEFAULT_REWARD_MIN, DEFAULT_WHIT_MIN, emit_sft, filter_sft, load_trajectories,
)
from .errors import DataError, ProviderError
from .portfolio import MetricsReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3


def _summary(m: MetricsReport) -> str:
    return (
        f"CR {m.cr_pct:.3f}%  SPR {m.sharpe:.3f}  MDD {m.mdd_pct:.3f}%  "
        f"AV {m.av_pct:.3f}%  trades {m.n_trades}"
    )


@click.group()
def cli() -> None:
    """Multi-agent daily-bar trading backtester."""


@cli.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Run configuration YAML.")
@click.option("--prices", "prices_path", required=True, type=click.Path(), help="Price CSV (date,close).")
@click.option("--news", "news_path", type=click.Path(), default=None, help="News JSONL (date,title,body).")
@click.option("--reports", "reports_dir", type=click.Path(), default=None, help="Filings directory with manifest.json.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Run artifact directory.")
def run_cmd(config_path: str, prices_path: str, news_path: str | None,
            reports_dir: str | None, out_dir: str) -> None:
    """Run a backtest and persist its artifacts."""
    cfg = load_config(config_path)
    artifacts = run_backtest(
        cfg, prices_path, out_dir,
        news_path=news_path, reports_dir=reports_dir,
        base_dir=Path(config_path).parent,
    )
    click.echo(f"run complete: {artifacts.run_dir}")
    click.echo(_summary(artifacts.metrics))


@cli.command("metrics")
@click.option("--run", "run_dir", required=True, type=click.Path(), help="Run artifact directory.")
def metrics_cmd(run_dir: str) -> None:
    """Print the stored metrics report for a run."""
    stored = load_metrics(run_dir)
    for key, value in stored.items():
        click.echo(f"{key}: {value}")


def _not_nan(ctx: click.Context, param: click.Parameter, value: float) -> float:
    # Every comparison with NaN is false: it would drop every sample silently.
    if math.isnan(value):
        raise click.BadParameter("must be a number, not NaN", ctx, param)
    return value


@cli.command("export-sft")
@click.option("--run", "run_dir", required=True, type=click.Path(), help="Run artifact directory.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output sft.jsonl path.")
@click.option("--min-reward", type=float, default=DEFAULT_REWARD_MIN, show_default=True,
              callback=_not_nan,
              help="Keep decision samples with taken_reward strictly above this.")
@click.option("--min-whit", type=float, default=DEFAULT_WHIT_MIN, show_default=True,
              callback=_not_nan,
              help="Keep forecast samples with w_hit at or above this.")
def export_sft_cmd(run_dir: str, out_path: str, min_reward: float, min_whit: float) -> None:
    """Filter labeled trajectories into fine-tuning samples."""
    records = load_trajectories(Path(run_dir) / TRAJECTORIES_FILE)
    samples = filter_sft(records, whit_min=min_whit, reward_min=min_reward)
    emit_sft(samples, out_path)
    click.echo(f"wrote {len(samples)} samples to {out_path}")


@cli.command("replay")
@click.option("--run", "run_dir", required=True, type=click.Path(), help="Run artifact directory.")
def replay_cmd(run_dir: str) -> None:
    """Recompute metrics from stored artifacts and verify the stored report."""
    click.echo(f"replay ok: {_summary(replay_run(run_dir))}")


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        cli.main(args=args, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Exit as exc:  # --help and friends
        return int(exc.exit_code)
    except (click.UsageError, click.ClickException) as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA
    except ProviderError as exc:
        click.echo(f"provider error: {exc}", err=True)
        return EXIT_PROVIDER


if __name__ == "__main__":
    sys.exit(main())
