//! The scheduler: one execution of a model, its threads, and the DFS path
//! over the choices that decide which thread runs next.
//!
//! Every model thread is an OS thread, but only the *active* one runs; the
//! others wait on [`Shared::turn`]. Before each visible operation (atomic
//! access, lock, wait, join) the active thread calls [`branch`], which asks
//! the [`Path`] which runnable thread goes next and hands the turn over.
//! Because exactly one thread touches shared memory between two choices,
//! and the hand-over itself synchronizes, every execution is sequentially
//! consistent and fully determined by its choices.

use std::any::Any;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The most threads one execution may have, the model's own included.
pub(crate) const MAX_THREADS: usize = 3;

/// The most choice points one execution may pass: more is a thread that
/// spins, reported instead of explored without end.
const MAX_STEPS: usize = 1_000;

/// What a blocked thread waits for. Locks and condvars are named by
/// address: they live as long as the execution that uses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    Lock(usize),
    /// A condvar wait, with its arrival order (notify_one wakes the oldest).
    Cond(usize, u64),
    Join(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    Runnable,
    Blocked(Wait),
    Done,
}

/// One choice point with more than one option.
#[derive(Debug)]
struct Branch {
    options: Vec<usize>,
    index: usize,
}

/// The DFS stack of choices. An execution replays the recorded prefix and
/// extends it with first options; [`Path::step`] then moves the deepest
/// choice that has options left to its next one. A replayed path holds a
/// printed schedule: one option per choice, checked for membership only.
#[derive(Debug, Default)]
pub(crate) struct Path {
    branches: Vec<Branch>,
    pos: usize,
    replay: bool,
}

impl Path {
    /// A path that replays `schedule`, a space-separated list of thread
    /// ids as a failure report prints it.
    pub(crate) fn replay(schedule: &str) -> Path {
        let branches = schedule
            .split_whitespace()
            .map(|id| Branch {
                options: vec![id.parse().expect("a schedule is thread ids")],
                index: 0,
            })
            .collect();
        Path {
            branches,
            pos: 0,
            replay: true,
        }
    }

    fn choose(&mut self, options: Vec<usize>) -> Result<usize, String> {
        if options.len() == 1 {
            return Ok(options[0]);
        }
        let Some(branch) = self.branches.get(self.pos) else {
            if self.replay {
                return Err("the schedule ended before the execution did".into());
            }
            self.branches.push(Branch { options, index: 0 });
            self.pos += 1;
            return Ok(self.branches[self.pos - 1].options[0]);
        };
        let chosen = branch.options[branch.index];
        let fits = if self.replay {
            options.contains(&chosen)
        } else {
            branch.options == options
        };
        if !fits {
            return Err(format!(
                "choice {} offers threads {options:?}, not the recorded {:?}: \
                 the model is not deterministic",
                self.pos, branch.options
            ));
        }
        self.pos += 1;
        Ok(chosen)
    }

    /// Advances to the next unexplored schedule; `false` when none is left.
    pub(crate) fn step(&mut self) -> bool {
        self.pos = 0;
        if self.replay {
            return false;
        }
        while let Some(last) = self.branches.last_mut() {
            if last.index + 1 < last.options.len() {
                last.index += 1;
                return true;
            }
            self.branches.pop();
        }
        false
    }

    /// The choices taken so far, as [`Path::replay`] reads them.
    fn schedule(&self) -> String {
        let ids: Vec<String> = self.branches[..self.pos]
            .iter()
            .map(|b| b.options[b.index].to_string())
            .collect();
        ids.join(" ")
    }
}

/// The state of one execution, under [`Shared::exec`].
struct Exec {
    threads: Vec<Run>,
    active: usize,
    path: Path,
    preemption_bound: usize,
    preemptions: usize,
    steps: usize,
    cond_seq: u64,
    failure: Option<String>,
    aborted: bool,
    finished: bool,
}

/// What every thread of one execution shares.
pub(crate) struct Shared {
    exec: Mutex<Exec>,
    turn: Condvar,
    os: Mutex<Vec<JoinHandle<()>>>,
}

/// The unwind payload that stops the threads of an aborted execution.
struct Abort;

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Shared>, usize)>> = const { RefCell::new(None) };
}

fn current() -> Option<(Arc<Shared>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Whether the calling thread runs inside a model.
pub(crate) fn in_model() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

impl Exec {
    fn fail(&mut self, what: String) {
        if self.failure.is_none() {
            let schedule = self.path.schedule();
            self.failure = Some(format!(
                "{what}\n  schedule: \"{schedule}\"\n  replay: Builder {{ replay: \
                 Some(\"{schedule}\".into()), ..Builder::new() }}.check(..)"
            ));
        }
        self.aborted = true;
    }

    /// Picks the next active thread after `me` reached a choice point,
    /// blocked or finished. Staying on a runnable `me` is free; moving off
    /// it is a preemption, allowed only under the bound.
    fn reschedule(&mut self, me: usize) {
        let runnable: Vec<usize> = (0..self.threads.len())
            .filter(|&t| self.threads[t] == Run::Runnable)
            .collect();
        if runnable.is_empty() {
            if self.threads.iter().all(|&r| r == Run::Done) {
                self.finished = true;
            } else {
                let mut what = String::from("deadlock:");
                for (t, run) in self.threads.iter().enumerate() {
                    if let Run::Blocked(wait) = run {
                        let _ = match wait {
                            Wait::Lock(at) => write!(what, " thread {t} waits for lock {at:#x};"),
                            Wait::Cond(at, _) => {
                                write!(what, " thread {t} waits on condvar {at:#x};")
                            }
                            Wait::Join(of) => write!(what, " thread {t} joins thread {of};"),
                        };
                    }
                }
                self.fail(what);
            }
            return;
        }
        let stays = self.threads[me] == Run::Runnable;
        let options = if !stays {
            runnable
        } else if self.preemptions >= self.preemption_bound {
            vec![me]
        } else {
            let others = runnable.into_iter().filter(|&t| t != me);
            std::iter::once(me).chain(others).collect()
        };
        match self.path.choose(options) {
            Ok(next) => {
                if stays && next != me {
                    self.preemptions += 1;
                }
                self.active = next;
            }
            Err(what) => self.fail(what),
        }
    }

    fn unblock(&mut self, woken: impl Fn(Wait) -> bool) {
        for run in &mut self.threads {
            if matches!(*run, Run::Blocked(w) if woken(w)) {
                *run = Run::Runnable;
            }
        }
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Exec> {
        self.exec.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until `me` is active; unwinds if the execution aborted.
    fn wait_turn(&self, mut exec: MutexGuard<'_, Exec>, me: usize) {
        self.turn.notify_all();
        while exec.active != me && !exec.aborted {
            exec = self.turn.wait(exec).unwrap_or_else(PoisonError::into_inner);
        }
        if exec.aborted {
            drop(exec);
            panic::resume_unwind(Box::new(Abort));
        }
    }
}

/// A choice point: the scheduler may run another thread before the
/// caller's next operation. A no-op outside a model, and while unwinding.
pub(crate) fn branch() {
    let Some((shared, me)) = current() else {
        return;
    };
    if std::thread::panicking() {
        return;
    }
    let mut exec = shared.lock();
    exec.steps += 1;
    if exec.steps > MAX_STEPS {
        exec.fail(format!(
            "thread {me} passed {MAX_STEPS} choice points in one execution: a spin?"
        ));
    } else if !exec.aborted {
        exec.reschedule(me);
    }
    shared.wait_turn(exec, me);
}

/// Blocks the calling model thread until a [`wake`] matches `wait`. A
/// condvar wait's arrival order is filled in here.
pub(crate) fn block(wait: Wait) {
    let (shared, me) = current().expect("block outside a model");
    let mut exec = shared.lock();
    let wait = match wait {
        Wait::Cond(addr, _) => {
            exec.cond_seq += 1;
            Wait::Cond(addr, exec.cond_seq)
        }
        other => other,
    };
    exec.threads[me] = Run::Blocked(wait);
    if !exec.aborted {
        exec.reschedule(me);
    }
    shared.wait_turn(exec, me);
}

/// Makes every thread blocked on a matching wait runnable again (it will
/// retry its operation when next chosen). A no-op outside a model.
pub(crate) fn wake(woken: impl Fn(Wait) -> bool) {
    if let Some((shared, _)) = current() {
        shared.lock().unblock(woken);
    }
}

/// Wakes the oldest waiter on the condvar at `addr`, if any.
pub(crate) fn wake_oldest(addr: usize) {
    let Some((shared, _)) = current() else {
        return;
    };
    let mut exec = shared.lock();
    let oldest = exec
        .threads
        .iter()
        .filter_map(|run| match run {
            Run::Blocked(Wait::Cond(a, seq)) if *a == addr => Some(*seq),
            _ => None,
        })
        .min();
    if let Some(seq) = oldest {
        exec.unblock(|w| w == Wait::Cond(addr, seq));
    }
}

/// Whether model thread `id` has finished.
pub(crate) fn is_done(id: usize) -> bool {
    let (shared, _) = current().expect("join outside a model");
    let done = shared.lock().threads[id] == Run::Done;
    done
}

fn message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "a non-string panic".into()
    }
}

/// Starts model thread `me` of `shared` on a fresh OS thread. It waits for
/// its turn, runs `f`, and on return hands the turn on; a panic fails the
/// execution.
fn start(shared: &Arc<Shared>, me: usize, f: impl FnOnce() + Send + 'static) {
    let shared2 = Arc::clone(shared);
    let os = std::thread::spawn(move || {
        let shared = shared2;
        CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&shared), me)));
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            shared.wait_turn(shared.lock(), me);
            f();
        }));
        let mut exec = shared.lock();
        match ran {
            Ok(()) => {
                exec.threads[me] = Run::Done;
                exec.unblock(|w| w == Wait::Join(me));
                if !exec.aborted {
                    exec.reschedule(me);
                }
            }
            Err(payload) if payload.is::<Abort>() => {}
            Err(payload) => exec.fail(format!("thread {me} panicked: {}", message(&*payload))),
        }
        drop(exec);
        shared.turn.notify_all();
        CURRENT.with(|c| *c.borrow_mut() = None);
    });
    shared
        .os
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(os);
}

/// Registers a new runnable model thread running `f`; returns its id.
pub(crate) fn spawn(f: impl FnOnce() + Send + 'static) -> usize {
    let (shared, _) = current().expect("spawn outside a model");
    let id = {
        let mut exec = shared.lock();
        assert!(
            exec.threads.len() < MAX_THREADS,
            "the checker explores at most {MAX_THREADS} threads per model"
        );
        exec.threads.push(Run::Runnable);
        exec.threads.len() - 1
    };
    start(&shared, id, f);
    id
}

/// Runs one execution of `f` along `path`; returns the path (for
/// [`Path::step`]) and the failure report, if any.
pub(crate) fn execute(
    f: Arc<dyn Fn() + Send + Sync>,
    path: Path,
    preemption_bound: usize,
) -> (Path, Option<String>) {
    let shared = Arc::new(Shared {
        exec: Mutex::new(Exec {
            threads: vec![Run::Runnable],
            active: 0,
            path,
            preemption_bound,
            preemptions: 0,
            steps: 0,
            cond_seq: 0,
            failure: None,
            aborted: false,
            finished: false,
        }),
        turn: Condvar::new(),
        os: Mutex::new(Vec::new()),
    });
    start(&shared, 0, move || f());
    {
        let mut exec = shared.lock();
        while !exec.finished && !exec.aborted {
            exec = shared
                .turn
                .wait(exec)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    // Join every thread of this execution before the next one starts.
    loop {
        let os = std::mem::take(&mut *shared.os.lock().unwrap_or_else(PoisonError::into_inner));
        if os.is_empty() {
            break;
        }
        for handle in os {
            let _ = handle.join();
        }
    }
    let mut exec = shared.lock();
    let failure = exec.failure.take();
    (std::mem::take(&mut exec.path), failure)
}
