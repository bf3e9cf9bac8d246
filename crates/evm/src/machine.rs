//! The sequential reference interpreter.
//!
//! `Machine<S>` executes contract calls directly over a [`Storage`],
//! metering gas with the same [`GasSchedule`] the compiler uses for its
//! static accounting. Because the op set is straight-line, the
//! interpreter's dynamic gas equals the compiler's static gas exactly,
//! and because both resolve state through the same [`StateLayout`], a
//! sequential `Machine` run is the word-for-word ground truth the
//! differential tests compare concurrent TxVM executions against.

use crate::contract::{ContractBank, ContractId};
use crate::memory::{Memory, SeqMemory};
use crate::ops::{GasSchedule, Op, MAX_CALL_DEPTH, MAX_STACK};
use crate::storage::{StateLayout, Storage};

/// Why a call could not complete. In this model every error is a
/// *submission* error: the compiler performs the same checks statically,
/// so a transaction that lowers successfully cannot fail at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutionError {
    /// The call needs more gas than the transaction's limit.
    OutOfGas {
        /// Gas the call consumes.
        needed: u64,
        /// The transaction's gas limit.
        limit: u64,
    },
    /// The operand stack exceeded [`MAX_STACK`].
    StackOverflow,
    /// An op popped from an empty (or too-shallow) stack.
    StackUnderflow,
    /// Call nesting exceeded [`MAX_CALL_DEPTH`].
    CallDepth,
    /// No such contract/function.
    UnknownFunction(ContractId, u8),
    /// `Arg(i)` with `i` at or above the function's arity, or a call
    /// with the wrong argument count.
    BadArg(u8),
}

impl std::fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionError::OutOfGas { needed, limit } => {
                write!(f, "out of gas: needs {needed}, limit {limit}")
            }
            ExecutionError::StackOverflow => write!(f, "stack overflow (max {MAX_STACK})"),
            ExecutionError::StackUnderflow => write!(f, "stack underflow"),
            ExecutionError::CallDepth => write!(f, "call depth exceeds {MAX_CALL_DEPTH}"),
            ExecutionError::UnknownFunction(c, fun) => {
                write!(f, "unknown function {fun} of contract {}", c.0)
            }
            ExecutionError::BadArg(i) => write!(f, "argument {i} out of range"),
        }
    }
}

impl std::error::Error for ExecutionError {}

/// Result of a completed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallOutcome {
    /// The entry function's return value.
    pub ret: u64,
    /// Total gas consumed (call overheads plus every executed op).
    pub gas_used: u64,
}

/// The sequential contract machine.
#[derive(Debug, Clone)]
pub struct Machine<S: Storage> {
    bank: ContractBank,
    layout: StateLayout,
    schedule: GasSchedule,
    storage: S,
}

impl<S: Storage> Machine<S> {
    /// A machine over a deployed bank, layout and backing storage.
    #[must_use]
    pub fn new(bank: ContractBank, layout: StateLayout, storage: S) -> Machine<S> {
        Machine {
            bank,
            layout,
            schedule: GasSchedule::default(),
            storage,
        }
    }

    /// The state layout.
    #[must_use]
    pub fn layout(&self) -> &StateLayout {
        &self.layout
    }

    /// The contract bank.
    #[must_use]
    pub fn bank(&self) -> &ContractBank {
        &self.bank
    }

    /// The backing storage.
    #[must_use]
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Consumes the machine, returning its storage.
    #[must_use]
    pub fn into_storage(self) -> S {
        self.storage
    }

    /// A native balance transfer: `balance[from] -= amount`,
    /// `balance[to] += amount` (wrapping, like everything in the model).
    pub fn transfer(&mut self, from: u64, to: u64, amount: u64) {
        let fa = self.layout.account_addr(from);
        let ta = self.layout.account_addr(to);
        let fv = self.storage.sload(fa).wrapping_sub(amount);
        self.storage.sstore(fa, fv);
        let tv = self.storage.sload(ta).wrapping_add(amount);
        self.storage.sstore(ta, tv);
    }

    /// Executes `func` of `contract` on behalf of `caller` with `args`,
    /// within `gas_limit`.
    ///
    /// # Errors
    ///
    /// Any [`ExecutionError`]; storage is left in whatever intermediate
    /// state the call reached (callers treating errors as rejection
    /// should validate first — the compiler's static checks are exactly
    /// this validation).
    pub fn call(
        &mut self,
        caller: u64,
        contract: ContractId,
        func: u8,
        args: &[u64],
        gas_limit: u64,
    ) -> Result<CallOutcome, ExecutionError> {
        let mut call = Call {
            bank: &self.bank,
            layout: &self.layout,
            schedule: &self.schedule,
            storage: &mut self.storage,
            caller,
            gas: GasMeter {
                used: 0,
                limit: gas_limit,
            },
        };
        let ret = call.run_frame(contract, func, args, 1)?;
        Ok(CallOutcome {
            ret,
            gas_used: call.gas.used,
        })
    }
}

/// One top-level call in progress. The machine is split into the code it
/// runs and the storage it writes, so every frame executes its function
/// body in place, borrowed from the bank.
struct Call<'m, S: Storage> {
    bank: &'m ContractBank,
    layout: &'m StateLayout,
    schedule: &'m GasSchedule,
    storage: &'m mut S,
    caller: u64,
    gas: GasMeter,
}

impl<S: Storage> Call<'_, S> {
    fn run_frame(
        &mut self,
        contract: ContractId,
        func: u8,
        args: &[u64],
        depth: usize,
    ) -> Result<u64, ExecutionError> {
        if depth > MAX_CALL_DEPTH {
            return Err(ExecutionError::CallDepth);
        }
        self.gas.charge(self.schedule.call)?;
        let bank = self.bank;
        let f = bank
            .function(contract, func)
            .ok_or(ExecutionError::UnknownFunction(contract, func))?;
        if args.len() != f.arity as usize {
            return Err(ExecutionError::BadArg(f.arity));
        }
        let mut stack: Vec<u64> = Vec::with_capacity(MAX_STACK);
        let mut mem = SeqMemory::new();
        for op in &f.ops {
            if !matches!(op, Op::Call(..)) {
                self.gas.charge(self.schedule.cost(op))?;
            }
            match *op {
                Op::Push(v) => push(&mut stack, v)?,
                Op::Pop => {
                    pop(&mut stack)?;
                }
                Op::Dup(n) => {
                    let v = peek(&stack, n)?;
                    push(&mut stack, v)?;
                }
                Op::Swap(n) => {
                    let top = stack
                        .len()
                        .checked_sub(1)
                        .ok_or(ExecutionError::StackUnderflow)?;
                    let other = top
                        .checked_sub(1 + n as usize)
                        .ok_or(ExecutionError::StackUnderflow)?;
                    stack.swap(top, other);
                }
                Op::Add => binop(&mut stack, u64::wrapping_add)?,
                Op::Sub => binop(&mut stack, u64::wrapping_sub)?,
                Op::Mul => binop(&mut stack, u64::wrapping_mul)?,
                Op::Shr(n) => {
                    let a = pop(&mut stack)?;
                    push(&mut stack, a >> n)?;
                }
                Op::And(m) => {
                    let a = pop(&mut stack)?;
                    push(&mut stack, a & m)?;
                }
                Op::Caller => push(&mut stack, self.caller)?,
                Op::Arg(i) => {
                    let v = *args.get(i as usize).ok_or(ExecutionError::BadArg(i))?;
                    push(&mut stack, v)?;
                }
                Op::MLoad(s) => {
                    let v = mem.mload(s);
                    push(&mut stack, v)?;
                }
                Op::MStore(s) => {
                    let v = pop(&mut stack)?;
                    mem.mstore(s, v);
                }
                Op::SLoad => {
                    let key = pop(&mut stack)?;
                    let v = self.storage.sload(self.layout.slot_addr(contract, key));
                    push(&mut stack, v)?;
                }
                Op::SStore => {
                    let value = pop(&mut stack)?;
                    let key = pop(&mut stack)?;
                    self.storage
                        .sstore(self.layout.slot_addr(contract, key), value);
                }
                Op::Call(callee, cf) => {
                    let arity = bank
                        .function(callee, cf)
                        .ok_or(ExecutionError::UnknownFunction(callee, cf))?
                        .arity as usize;
                    if stack.len() < arity {
                        return Err(ExecutionError::StackUnderflow);
                    }
                    let call_args = stack.split_off(stack.len() - arity);
                    let ret = self.run_frame(callee, cf, &call_args, depth + 1)?;
                    push(&mut stack, ret)?;
                }
                Op::Stop => return Ok(stack.last().copied().unwrap_or(0)),
            }
        }
        Ok(stack.last().copied().unwrap_or(0))
    }
}

struct GasMeter {
    used: u64,
    limit: u64,
}

impl GasMeter {
    fn charge(&mut self, cost: u64) -> Result<(), ExecutionError> {
        self.used += cost;
        if self.used > self.limit {
            Err(ExecutionError::OutOfGas {
                needed: self.used,
                limit: self.limit,
            })
        } else {
            Ok(())
        }
    }
}

fn binop(stack: &mut Vec<u64>, f: impl Fn(u64, u64) -> u64) -> Result<(), ExecutionError> {
    let b = pop(stack)?;
    let a = pop(stack)?;
    push(stack, f(a, b))
}

fn push(stack: &mut Vec<u64>, v: u64) -> Result<(), ExecutionError> {
    if stack.len() >= MAX_STACK {
        return Err(ExecutionError::StackOverflow);
    }
    stack.push(v);
    Ok(())
}

fn pop(stack: &mut Vec<u64>) -> Result<u64, ExecutionError> {
    stack.pop().ok_or(ExecutionError::StackUnderflow)
}

fn peek(stack: &[u64], below_top: u8) -> Result<u64, ExecutionError> {
    let i = stack
        .len()
        .checked_sub(1 + below_top as usize)
        .ok_or(ExecutionError::StackUnderflow)?;
    Ok(stack[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{dex, token, DEX, TOKEN};
    use crate::ops::TX_GAS_LIMIT;
    use crate::storage::ImageStorage;

    fn machine() -> Machine<ImageStorage> {
        let layout = StateLayout::standard();
        Machine::new(ContractBank::library(&layout), layout, ImageStorage::new())
    }

    fn balance(m: &Machine<ImageStorage>, acct: u64) -> u64 {
        let key = token::BALANCE_BASE_SLOT + (acct & m.layout().account_mask());
        m.storage().sload(m.layout().slot_addr(TOKEN, key))
    }

    #[test]
    fn mint_credits_supply_and_balance() {
        let mut m = machine();
        let out = m
            .call(0, TOKEN, token::MINT, &[7, 100], TX_GAS_LIMIT)
            .unwrap();
        assert!(out.gas_used > 0);
        assert_eq!(balance(&m, 7), 100);
        let supply = m
            .storage()
            .sload(m.layout().slot_addr(TOKEN, token::SUPPLY_SLOT));
        assert_eq!(supply, 100);
    }

    #[test]
    fn transfer_moves_without_creating() {
        let mut m = machine();
        m.call(0, TOKEN, token::MINT, &[3, 50], TX_GAS_LIMIT)
            .unwrap();
        m.call(3, TOKEN, token::TRANSFER, &[4, 20], TX_GAS_LIMIT)
            .unwrap();
        assert_eq!(balance(&m, 3), 30);
        assert_eq!(balance(&m, 4), 20);
    }

    #[test]
    fn balance_of_returns_the_balance() {
        let mut m = machine();
        m.call(0, TOKEN, token::MINT, &[9, 42], TX_GAS_LIMIT)
            .unwrap();
        let out = m
            .call(1, TOKEN, token::BALANCE_OF, &[9], TX_GAS_LIMIT)
            .unwrap();
        assert_eq!(out.ret, 42);
    }

    #[test]
    fn swap_conserves_tokens_and_pays_from_reserve_b() {
        let mut m = machine();
        let dex_acct = ContractBank::dex_account(m.layout());
        m.call(0, TOKEN, token::MINT, &[5, 1000], TX_GAS_LIMIT)
            .unwrap();
        m.call(0, TOKEN, token::MINT, &[dex_acct, 1000], TX_GAS_LIMIT)
            .unwrap();
        m.call(0, DEX, dex::DEPOSIT, &[0, 160], TX_GAS_LIMIT)
            .unwrap();

        let out = m.call(5, DEX, dex::SWAP, &[100], TX_GAS_LIMIT).unwrap();
        assert_eq!(out.ret, 10, "payout is reserve_b >> 4");
        assert_eq!(balance(&m, 5), 1000 - 100 + 10);
        assert_eq!(balance(&m, dex_acct), 1000 + 100 - 10);
        let ra = m
            .storage()
            .sload(m.layout().slot_addr(DEX, dex::RESERVE_A_SLOT));
        let rb = m
            .storage()
            .sload(m.layout().slot_addr(DEX, dex::RESERVE_B_SLOT));
        assert_eq!(ra, 100);
        assert_eq!(rb, 150);
        // Conserved: total supply unchanged by swapping.
        let supply = m
            .storage()
            .sload(m.layout().slot_addr(TOKEN, token::SUPPLY_SLOT));
        assert_eq!(supply, 2000);
        assert_eq!(balance(&m, 5) + balance(&m, dex_acct), 2000);
    }

    #[test]
    fn native_transfer_is_wrapping_and_conserving() {
        let mut m = machine();
        m.transfer(1, 2, 30);
        let l = *m.layout();
        assert_eq!(m.storage().sload(l.account_addr(1)), 0u64.wrapping_sub(30));
        assert_eq!(m.storage().sload(l.account_addr(2)), 30);
        let sum = m
            .storage()
            .sload(l.account_addr(1))
            .wrapping_add(m.storage().sload(l.account_addr(2)));
        assert_eq!(sum, 0);
    }

    #[test]
    fn gas_limit_is_enforced() {
        let mut m = machine();
        let err = m.call(0, TOKEN, token::MINT, &[7, 100], 3).unwrap_err();
        assert!(matches!(err, ExecutionError::OutOfGas { limit: 3, .. }));
    }

    #[test]
    fn unknown_function_is_rejected() {
        let mut m = machine();
        let err = m.call(0, TOKEN, 99, &[], TX_GAS_LIMIT).unwrap_err();
        assert_eq!(err, ExecutionError::UnknownFunction(TOKEN, 99));
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let mut m = machine();
        let err = m
            .call(0, TOKEN, token::MINT, &[7], TX_GAS_LIMIT)
            .unwrap_err();
        assert_eq!(err, ExecutionError::BadArg(2));
    }
}
