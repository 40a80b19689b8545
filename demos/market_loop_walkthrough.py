"""End-to-end market loop: pool, regime-aware fees, rebates, epoch rewards.

Drives an n=4 pool through a seeded synthetic trade stream, then audits the
books: every fee must land in exactly one of the three buckets, and each
epoch's reward pool must pay out to the traders who generated the volume.
"""

from powerlaw_amm import MarketLoopConfig, run_market_loop, spot_price

cfg = MarketLoopConfig(seed=2024)
res = run_market_loop(cfg)

print(f"Pool: X={cfg.x_reserve:,.0f} / Y={cfg.y_reserve:,.0f}, n={cfg.n}; "
      f"{cfg.epochs} epochs x {cfg.periods_per_epoch} periods")
print(f"Executed {res.executed_trades} trades ({res.rejected_trades} rejected as oversized)")
print(f"Total volume: {res.total_volume:,.2f}   total fees: {res.total_fees:,.2f}")

print("\nFee buckets:")
print(f"  liquidity providers: {res.lp_total:,.2f}")
print(f"  trader rebates:      {res.rebate_total:,.2f}")
print(f"  protocol (gross):    {res.protocol_total:,.2f}")
buckets = res.lp_total + res.rebate_total + res.protocol_total
print(f"  bucket sum vs fees:  {buckets:,.2f} vs {res.total_fees:,.2f} "
      f"(relative gap {abs(buckets / res.total_fees - 1):.2e})")

print(f"\nVolume rewards (one tenth of each epoch's fees, from the protocol share):")
print(f"  distributed: {res.rewards_distributed:,.2f}   carried: {res.reward_carry:,.2f}   "
      f"protocol net: {res.protocol_net:,.2f}")
for er in res.epoch_reports:
    paid = sum(p for _, p in er.payouts)
    top = max(er.payouts, key=lambda tp: tp[1]) if er.payouts else ("-", 0.0)
    print(f"  epoch {er.epoch_id}: fees {er.fees:9.2f}  pool {er.reward_pool:8.2f}  "
          f"paid {paid:8.2f}  top trader {top[0]} ({top[1]:.2f})")

print(f"\nFinal pool: X={res.final_pool.x_reserve:,.2f}, Y={res.final_pool.y_reserve:,.2f}, "
      f"price {spot_price(res.final_pool):.4f}")
sig = res.sigma_series
print(f"Realized per-period volatility: min {min(sig):.4f}, max {max(sig):.4f}")
