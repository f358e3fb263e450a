//! The layer ladder: one micro-loop per call into a layer, timed from
//! outside through public functions only. A layer is a module of the program
//! (`mem`, `filter`, `trigger`, `ctx`, `dispatch`, `runtime`, `graph`, `obs`,
//! `accessor` in dtt-core; `served` in dtt-workloads; `proto`, `admission`,
//! `server`, `engine` in dtt-serve). Each loop is calibrated to one time
//! slice and reports the median of five slices.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dtt_core::trigger::TriggerTable;
use dtt_core::{
    Addr, AddrRange, Config, Granularity, LookupScratch, Runtime, TrackedArray, TthreadId,
};
use dtt_serve::proto::write_frame;
use dtt_serve::{FrameDecoder, Gate, Request, Response, Server};
use dtt_workloads::{suite, Scale, ServedKeyed};

use crate::host;
use crate::span::Tracer;
use crate::stats::{geomean, median, sorted, tail};
use crate::workloads::serve::{keyed_config, Conn};

pub type Metric = (&'static str, &'static str, f64);

const SLICES: usize = 5;

/// Median nanoseconds per iteration of `body(iters)`: `iters` is grown until
/// one call fills a slice, then five slices are timed.
fn per_iter_ns(slice: Duration, mut body: impl FnMut(u64)) -> f64 {
    let mut iters = 8u64;
    loop {
        let t = Instant::now();
        body(iters);
        let took = t.elapsed();
        if took * 4 >= slice || iters >= 1 << 32 {
            let scale = slice.as_secs_f64() / took.as_secs_f64().max(1e-9);
            iters = ((iters as f64 * scale) as u64).max(1);
            break;
        }
        iters *= 4;
    }
    let per_iter: Vec<f64> = (0..SLICES)
        .map(|_| {
            let t = Instant::now();
            body(iters);
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_iter)
}

/// Median of `n` individually timed calls, in nanoseconds: for operations
/// that consume what they act on (start-up, shutdown).
fn median_call_ns(n: usize, mut call: impl FnMut() -> Duration) -> f64 {
    let each: Vec<f64> = (0..n).map(|_| call().as_nanos() as f64).collect();
    median(&each)
}

/// A deferred runtime with one `len`-element array; `watched` puts an
/// empty-bodied tthread on the whole array.
fn array_runtime(len: usize, watched: bool) -> (Runtime<()>, TrackedArray<u64>, TthreadId) {
    let mut rt = Runtime::new(Config::default(), ());
    let arr = rt.alloc_array::<u64>(len).expect("arena holds the array");
    let tt = rt.register("sink", |_| {});
    if watched {
        rt.watch(tt, arr.range()).expect("range lies in the array");
    }
    (rt, arr, tt)
}

fn mem_and_obs(slice: Duration, out: &mut Vec<Metric>) {
    const LEN: usize = 4096;
    let mut tick = 0u64;
    // Every value is larger than any stored before it, so every store changes.
    let mut changing = |rt: &mut Runtime<()>, arr: TrackedArray<u64>, n: u64| {
        rt.with(|ctx| {
            for i in 0..n {
                tick += 1;
                ctx.write(arr, i as usize % LEN, tick);
            }
        })
    };
    let (mut rt, arr, _) = array_runtime(LEN, false);
    let unwatched = per_iter_ns(slice, |n| changing(&mut rt, arr, n));
    rt.set_observing(true);
    let observed = per_iter_ns(slice, |n| changing(&mut rt, arr, n));
    out.push(("mem.store_unwatched_ns", "ns", unwatched));
    out.push(("obs.store_overhead_ns", "ns", observed - unwatched));

    let (mut rt, arr, _) = array_runtime(LEN, true);
    let silent = per_iter_ns(slice, |n| {
        rt.with(|ctx| {
            for i in 0..n {
                ctx.write(arr, i as usize % LEN, 0);
            }
        })
    });
    let load = per_iter_ns(slice, |n| {
        rt.with(|ctx| {
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_add(ctx.read(arr, i as usize % LEN));
            }
            black_box(acc);
        })
    });
    out.push(("mem.store_silent_ns", "ns", silent));
    out.push(("mem.load_ns", "ns", load));

    // Bulk stores alternate two prepared buffers, so building the input is
    // outside the loop: equal buffers (all silent), buffers differing in one
    // element per 64 (sparse), buffers differing everywhere (dense).
    const BULK: usize = 8192;
    let (mut rt, arr, _) = array_runtime(BULK, true);
    let a: Vec<u64> = (0..BULK as u64).collect();
    let mut bulk = |b: &[u64]| {
        per_iter_ns(slice, |n| {
            rt.with(|ctx| {
                for i in 0..n {
                    ctx.write_slice(arr, 0, if i % 2 == 0 { &a } else { b });
                }
            })
        }) / BULK as f64
    };
    let sparse: Vec<u64> = a
        .iter()
        .map(|&v| if v % 64 == 0 { !v } else { v })
        .collect();
    let dense: Vec<u64> = a.iter().map(|&v| !v).collect();
    out.push(("mem.bulk_silent_ns_per_elem", "ns", bulk(&a)));
    out.push(("mem.bulk_sparse_ns_per_elem", "ns", bulk(&sparse)));
    out.push(("mem.bulk_dense_ns_per_elem", "ns", bulk(&dense)));
    let mut buf = Vec::with_capacity(BULK);
    let bulk_load = per_iter_ns(slice, |n| {
        rt.with(|ctx| {
            for _ in 0..n {
                ctx.read_all_into(arr, &mut buf);
                black_box(buf.len());
            }
        })
    });
    out.push(("mem.bulk_load_ns_per_elem", "ns", bulk_load / BULK as f64));
}

/// `Accessor` stores from one thread and from two (each on its own half of
/// the array): the measured scaling on this host, not a model.
fn accessor(slice: Duration, out: &mut Vec<Metric>) {
    const HALF: usize = 4096;
    let (rt, arr, _) = array_runtime(2 * HALF, false);
    let hammer = |half: usize, n: u64, base: u64| {
        let mut acc = rt.accessor();
        for i in 0..n {
            acc.write(arr, half * HALF + i as usize % HALF, base + i);
        }
    };
    let mut base = 1u64;
    let mut advance = |n: u64| {
        base += n;
        base - n
    };
    let one = per_iter_ns(slice, |n| hammer(0, n, advance(n)));
    let two = per_iter_ns(slice, |n| {
        let base = advance(n);
        let gate = Barrier::new(2);
        std::thread::scope(|s| {
            let other = s.spawn(|| {
                gate.wait();
                hammer(1, n, base);
            });
            gate.wait();
            hammer(0, n, base);
            other.join().expect("accessor thread panicked");
        });
    });
    out.push(("accessor.store_ns_1t", "ns", one));
    out.push(("accessor.store_ns_2t", "ns", two));
    out.push(("accessor.scaling_2t", "ratio", 2.0 * one / two));
}

fn filter(slice: Duration, out: &mut Vec<Metric>) {
    const PAGE: u64 = 4096;
    let mut rt = Runtime::new(Config::default(), ());
    let near = rt.alloc_array::<u64>(512).expect("arena holds a page");
    let _spacer = rt
        .alloc_array::<u64>(65 * 512)
        .expect("arena holds 65 pages");
    let far = rt.alloc_array::<u64>(512).expect("arena holds a page");
    let tt = rt.register("sink", |_| {});
    rt.watch(tt, near.range_of(0, 8))
        .expect("line lies in the array");

    // Cells on the watched line's page but on other lines.
    let at = |i: usize| near.at(i).addr().raw();
    let same_page: Vec<usize> = (8..512)
        .filter(|&i| {
            at(i) / PAGE == at(0) / PAGE && at(i) / 64 != at(0) / 64 && at(i) / 64 != at(7) / 64
        })
        .collect();
    let mut tick = 0u64;
    let line_miss = per_iter_ns(slice, |n| {
        rt.with(|ctx| {
            for i in 0..n {
                tick += 1;
                ctx.write(near, same_page[i as usize % same_page.len()], tick);
            }
        })
    });
    let page_miss = per_iter_ns(slice, |n| {
        rt.with(|ctx| {
            for i in 0..n {
                tick += 1;
                ctx.write(far, i as usize % 512, tick);
            }
        })
    });
    out.push(("filter.page_miss_ns", "ns", page_miss));
    out.push(("filter.line_miss_ns", "ns", line_miss));
}

fn trigger(slice: Duration, out: &mut Vec<Metric>) {
    for (name, regions) in [
        ("trigger.lookup_ns_1", 1u64),
        ("trigger.lookup_ns_256", 256),
    ] {
        let mut table = TriggerTable::new(Granularity::Exact);
        for k in 0..regions {
            table.watch(
                TthreadId::new(k as u32),
                AddrRange::new(Addr::new(k * 64), 64),
            );
        }
        let mut scratch = LookupScratch::new();
        let ns = per_iter_ns(slice, |n| {
            let mut hits = 0usize;
            for i in 0..n {
                table.lookup_with(
                    AddrRange::new(Addr::new(i % regions * 64 + 8), 8),
                    &mut scratch,
                );
                hits += scratch.hits().len();
            }
            assert_eq!(
                black_box(hits) as u64,
                n,
                "every lookup hits its one region"
            );
        });
        out.push((name, "ns", ns));
    }
}

/// `ctx`, `runtime.join_skip_ns` and the two `dispatch` pairs share a shape:
/// cells on their own lines, an empty-bodied tthread per cell.
fn fire_and_join(slice: Duration, out: &mut Vec<Metric>) {
    const CELLS: usize = 64;
    let build = |cfg: Config| {
        let mut rt = Runtime::new(cfg, ());
        let cells = rt.alloc_array::<u64>(CELLS * 8).expect("arena holds 4 KiB");
        let tts: Vec<TthreadId> = (0..CELLS)
            .map(|i| {
                let tt = rt.register(&format!("sink{i}"), |_| {});
                rt.watch(tt, cells.range_of(i * 8, i * 8 + 1))
                    .expect("cell lies in the array");
                tt
            })
            .collect();
        (rt, cells, tts)
    };
    let mut tick = 0u64;

    let (mut rt, cells, tts) = build(Config::default());
    let enter = per_iter_ns(slice, |n| {
        for _ in 0..n {
            rt.with(|ctx| {
                black_box(ctx);
            });
        }
    });
    let skip = per_iter_ns(slice, |n| {
        for _ in 0..n {
            black_box(rt.join(tts[1]).expect("clean tthread"));
        }
    });
    let inline_pair = per_iter_ns(slice, |n| {
        for _ in 0..n {
            tick += 1;
            rt.with(|ctx| ctx.write(cells, 0, tick));
            rt.join(tts[0]).expect("empty body");
        }
    });
    // tthread 2 is triggered by the first store and never joined: every
    // later changing store to its cell coalesces.
    let coalesced = per_iter_ns(slice, |n| {
        rt.with(|ctx| {
            for _ in 0..n {
                tick += 1;
                ctx.write(cells, 16, tick);
            }
        })
    });
    out.push(("ctx.with_enter_ns", "ns", enter));
    out.push(("ctx.store_coalesced_ns", "ns", coalesced));
    out.push(("ctx.fire_join_inline_ns", "ns", inline_pair));
    out.push(("runtime.join_skip_ns", "ns", skip));

    let (mut rt, cells, tts) = build(Config::default().with_workers(1));
    let worker_pair = per_iter_ns(slice, |n| {
        for _ in 0..n {
            tick += 1;
            rt.with(|ctx| ctx.write(cells, 0, tick));
            rt.join(tts[0]).expect("empty body");
        }
    });
    let burst = per_iter_ns(slice, |n| {
        for _ in 0..n {
            tick += 1;
            rt.with(|ctx| {
                for i in 0..CELLS {
                    ctx.write(cells, i * 8, tick);
                }
            });
            rt.join_all().expect("empty bodies");
        }
    });
    out.push(("dispatch.fire_join_w1_us", "us", worker_pair / 1e3));
    out.push((
        "dispatch.burst_drain_us_per_item",
        "us",
        burst / 1e3 / CELLS as f64,
    ));
}

fn runtime_lifecycle(slice: Duration, out: &mut Vec<Metric>) {
    let new = per_iter_ns(slice, |n| {
        for _ in 0..n {
            black_box(Runtime::new(Config::default(), ()));
        }
    });
    let register_watch = per_iter_ns(slice, |n| {
        let mut rt = Runtime::new(Config::default(), ());
        let arr = rt
            .alloc_array::<u64>(n as usize * 8)
            .expect("arena holds the cells");
        for i in 0..n as usize {
            let tt = rt.register("sink", |_| {});
            rt.watch(tt, arr.range_of(i * 8, i * 8 + 1))
                .expect("cell lies in the array");
        }
    });
    let shutdown = median_call_ns(3 * SLICES, || {
        let rt = Runtime::new(Config::default().with_workers(1), ());
        let t = Instant::now();
        rt.shutdown(Duration::from_secs(5))
            .expect("an idle worker retires");
        t.elapsed()
    });
    out.push(("runtime.new_us", "us", new / 1e3));
    out.push(("runtime.register_watch_us", "us", register_watch / 1e3));
    out.push(("runtime.shutdown_us", "us", shutdown / 1e3));
}

/// One pass over the suite: plain baseline, deferred DTT, and DTT with one
/// worker, each kernel once.
fn kernels(smoke: bool, out: &mut Vec<Metric>) {
    let (mut deferred, mut par1) = (Vec::new(), Vec::new());
    for k in suite(if smoke {
        Scale::Train
    } else {
        Scale::Reference
    }) {
        let time = |f: &mut dyn FnMut() -> u64| {
            let t = Instant::now();
            let digest = f();
            (t.elapsed().as_secs_f64(), digest)
        };
        let (base_s, digest) = time(&mut || k.run_baseline());
        let (dtt_s, d0) = time(&mut || k.run_dtt(Config::default()).digest);
        let (par_s, d1) = time(&mut || k.run_dtt(Config::default().with_workers(1)).digest);
        assert!(digest == d0 && digest == d1, "{}: digests differ", k.name());
        deferred.push(base_s / dtt_s);
        par1.push(base_s / par_s);
    }
    out.push(("kernels.speedup_vs_baseline", "ratio", geomean(&deferred)));
    out.push(("runtime.kernels_par1_speedup", "ratio", geomean(&par1)));
}

/// A 16-stage pass-through chain: change the head, join every stage in
/// order, divide by 16.
fn graph(slice: Duration, out: &mut Vec<Metric>) {
    const STAGES: usize = 16;
    let mut rt = Runtime::new(Config::default(), ());
    let cells = rt
        .alloc_array::<u64>((STAGES + 1) * 8)
        .expect("arena holds the chain");
    let tts: Vec<TthreadId> = (0..STAGES)
        .map(|k| {
            let tt = rt.register(&format!("stage{k}"), move |ctx| {
                let v = ctx.read(cells, k * 8);
                ctx.write(cells, (k + 1) * 8, v);
            });
            rt.watch(tt, cells.range_of(k * 8, k * 8 + 1))
                .expect("cell lies in the array");
            rt.declare_output(tt, cells.range_of((k + 1) * 8, (k + 1) * 8 + 1))
                .expect("a chain has no cycle");
            tt
        })
        .collect();
    let mut tick = 0u64;
    let pass = per_iter_ns(slice, |n| {
        for _ in 0..n {
            tick += 1;
            rt.with(|ctx| ctx.write(cells, 0, tick));
            for &tt in &tts {
                rt.join(tt).expect("pass-through body");
            }
        }
        assert_eq!(
            rt.with(|ctx| ctx.read(cells, STAGES * 8)),
            tick,
            "the change reached the tail"
        );
    });
    out.push(("graph.hop_ns", "ns", pass / STAGES as f64));
}

fn served(slice: Duration, out: &mut Vec<Metric>) {
    let cfg = keyed_config();
    let build =
        |runtime: Config| ServedKeyed::build(runtime, cfg.dims.0, cfg.dims.1, cfg.key_space);
    let mut tick = 0u64;
    let mut put = |view: &mut ServedKeyed, refresh: bool, n: u64| {
        for _ in 0..n {
            tick += 1;
            view.apply(&[(tick.wrapping_mul(0x9E37_79B9), (tick % 1000) as i64)]);
            if refresh {
                view.refresh().expect("no tthread is wedged");
            }
        }
    };

    let mut view = build(Config::default());
    let put_fresh = per_iter_ns(slice, |n| put(&mut view, true, n));
    let read = per_iter_ns(slice, |n| {
        for i in 0..n {
            black_box((view.read_key_row(i), view.read()));
        }
    });
    let snapshot = per_iter_ns(slice, |n| {
        for _ in 0..n {
            black_box(view.rows_snapshot());
        }
    });
    // Last: without a refresh the row tthreads stay triggered.
    let apply = per_iter_ns(slice, |n| put(&mut view, false, n));
    // The runtime the server's engine builds from the same `ServeConfig`.
    let mut engine_runtime = Config::default().with_workers(cfg.workers);
    if let Some(base) = cfg.commit_backoff {
        engine_runtime = engine_runtime.with_commit_backoff(base);
    }
    let mut view = build(engine_runtime);
    let put_fresh_w1 = per_iter_ns(slice, |n| put(&mut view, true, n));

    out.push(("served.apply_ns", "ns", apply));
    out.push(("served.refresh_us", "us", put_fresh / 1e3));
    out.push(("served.refresh_w1_us", "us", put_fresh_w1 / 1e3));
    out.push(("served.read_ns", "ns", read));
    out.push(("served.rows_snapshot_ns", "ns", snapshot));
}

fn proto_and_admission(slice: Duration, out: &mut Vec<Metric>) {
    let encode = per_iter_ns(slice, |n| {
        for i in 0..n {
            black_box(
                Request::Put {
                    key: i,
                    value: i as i64,
                }
                .encode(),
            );
        }
    });
    let payload = Request::Put { key: 7, value: 9 }.encode();
    let decode = per_iter_ns(slice, |n| {
        for _ in 0..n {
            black_box(Request::decode(black_box(&payload)));
        }
    });
    let mut wire = Vec::with_capacity(64);
    let mut decoder = FrameDecoder::new();
    let roundtrip = per_iter_ns(slice, |n| {
        for _ in 0..n {
            wire.clear();
            write_frame(&mut wire, &payload).expect("writing to a Vec cannot fail");
            decoder.extend(&wire);
            let frame = decoder.next_frame().expect("well-formed frame");
            assert!(black_box(frame).is_some());
        }
    });
    out.push(("proto.encode_ns", "ns", encode));
    out.push(("proto.decode_ns", "ns", decode));
    out.push(("proto.frame_roundtrip_ns", "ns", roundtrip));

    let gate = Gate::new(keyed_config().max_inflight);
    let permit = per_iter_ns(slice, |n| {
        for _ in 0..n {
            assert!(gate.try_acquire());
            gate.release();
        }
    });
    out.push(("admission.acquire_release_ns", "ns", permit));
}

/// A live server: start-up, `Ping` round trips (gate permit, never reaches
/// the mailbox: TCP and sweep only), `Get` and `Put` medians for the engine
/// by subtraction, idle CPU with two silent connections, shutdown.
fn server(scale: f64, out: &mut Vec<Metric>) {
    let count = |full: f64| (full * scale).max(20.0) as usize;
    let mut quiet = Tracer::off();

    let t = Instant::now();
    let mut srv = Server::start(keyed_config()).expect("bind an ephemeral local port");
    let mut conn = Conn::connect(&srv).expect("connect to the local server");
    let first = conn.request(Request::Ping, &mut quiet);
    out.push(("server.start_us", "us", t.elapsed().as_secs_f64() * 1e6));
    assert!(matches!(first, Ok(Response::Pong)), "first ping: {first:?}");
    let _silent = Conn::connect(&srv).expect("connect to the local server");

    let mut rtts_us = |n: usize, request: &dyn Fn(u64) -> Request| {
        let mut us: Vec<f64> = (0..n as u64)
            .map(|i| {
                let t = Instant::now();
                let reply = conn.request(request(i), &mut quiet);
                let took = t.elapsed().as_secs_f64() * 1e6;
                assert!(
                    !matches!(reply, Err(_) | Ok(Response::Shed | Response::Err { .. })),
                    "ladder request {i}: {reply:?}"
                );
                took
            })
            .collect();
        sorted(&mut us);
        us
    };
    let pings = rtts_us(count(1500.0), &|_| Request::Ping);
    let gets = rtts_us(count(300.0), &|i| match i % 2 {
        0 => Request::Get { query: 0 },
        _ => Request::GetKey { key: i },
    });
    let puts = rtts_us(count(300.0), &|i| Request::Put {
        key: i * 37,
        value: (i % 1000) as i64,
    });
    let (ping, get, put) = (median(&pings), median(&gets), median(&puts));
    out.push(("server.ping_rtt_p50_us", "us", ping));
    out.push(("server.ping_rtt_p99_us", "us", tail(&pings, 99).1));
    out.push(("engine.get_over_ping_p50_us", "us", get - ping));
    out.push(("engine.put_over_get_p50_us", "us", put - get));

    let idle = Duration::from_secs_f64(scale.min(1.0));
    let cpu = host::cpu_seconds();
    std::thread::sleep(idle);
    let idle_cpu_ms_per_s = (host::cpu_seconds() - cpu) * 1e3 / idle.as_secs_f64();
    out.push(("server.idle_cpu_ms_per_s", "ms/s", idle_cpu_ms_per_s));

    drop((conn, _silent));
    let t = Instant::now();
    srv.shutdown(Duration::from_secs(10))
        .expect("an idle server drains");
    out.push(("server.shutdown_ms", "ms", t.elapsed().as_secs_f64() * 1e3));
}

/// Runs the whole ladder in about `seconds`: some fifty loops of six to
/// seven slices each take half of it, the live server and the three passes
/// over the kernels the rest.
pub fn ladder(seconds: f64, smoke: bool) -> Vec<Metric> {
    let slice = Duration::from_secs_f64(seconds * 0.002);
    let mut out = Vec::new();
    mem_and_obs(slice, &mut out);
    accessor(slice, &mut out);
    filter(slice, &mut out);
    trigger(slice, &mut out);
    fire_and_join(slice, &mut out);
    runtime_lifecycle(slice, &mut out);
    kernels(smoke, &mut out);
    graph(slice, &mut out);
    served(slice, &mut out);
    proto_and_admission(slice, &mut out);
    server(seconds / 5.0, &mut out);
    out
}
