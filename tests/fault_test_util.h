/**
 * @file
 * EXPECT_SIM_FAULT: the in-process check that a statement reports an
 * error as a classified SimFault, of the given kind and with a message
 * containing the given text.
 */

#ifndef PIMCACHE_TESTS_FAULT_TEST_UTIL_H_
#define PIMCACHE_TESTS_FAULT_TEST_UTIL_H_

#include <string>

#include <gtest/gtest.h>

#include "common/sim_fault.h"

#define EXPECT_SIM_FAULT(statement, fault_kind, text)                       \
    do {                                                                    \
        bool thrown_ = false;                                               \
        try {                                                               \
            statement;                                                      \
        } catch (const ::pim::SimFault& fault_) {                           \
            thrown_ = true;                                                 \
            EXPECT_STREQ(::pim::simFaultKindName(fault_.kind()),            \
                         ::pim::simFaultKindName(fault_kind));              \
            EXPECT_NE(fault_.message().find(text), std::string::npos)       \
                << fault_.what();                                           \
        }                                                                   \
        EXPECT_TRUE(thrown_) << #statement " threw no SimFault";            \
    } while (0)

#endif // PIMCACHE_TESTS_FAULT_TEST_UTIL_H_
